"""Unit tests for FIFO resources and stores — the contention primitives."""

import pytest

from repro.sim import Resource, SimError, Simulator, Store


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2 and res.queued == 1


def test_release_grants_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    third = res.request()
    res.release(first)
    assert second.triggered and not third.triggered
    res.release(second)
    assert third.triggered


def test_release_unknown_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.request()
    res.release(granted)
    with pytest.raises(SimError):
        res.release(granted)


def test_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    queued = res.request()
    res.release(queued)  # cancel while still queued
    assert res.queued == 0


def test_zero_capacity_rejected():
    with pytest.raises(SimError):
        Resource(Simulator(), capacity=0)


def test_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(2.0)
        return sim.now

    def waiter():
        with res.request() as req:
            yield req
        return sim.now

    sim.process(holder())
    w = sim.process(waiter())
    assert sim.run(until=w) == 2.0


def test_four_cpu_queueing_matches_fifo_formula():
    """k simultaneous jobs of service s on c servers: job i starts at
    floor(i/c)*s — the closed form the macro cluster model uses."""
    sim = Simulator()
    cpus = Resource(sim, capacity=4)
    service, jobs = 2.0, 10
    finish_times = []

    def job():
        with cpus.request() as req:
            yield req
            yield sim.timeout(service)
        finish_times.append(sim.now)

    for _ in range(jobs):
        sim.process(job())
    sim.run()
    expected = sorted((i // 4 + 1) * service for i in range(jobs))
    assert finish_times == expected


def test_store_is_fifo():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    assert store.get().value == "a"
    assert store.get().value == "b"
    assert len(store) == 0


def test_store_blocking_get():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (sim.now, item)

    proc = sim.process(consumer())
    sim.timeout(3.0).add_callback(lambda e: store.put("late"))
    assert sim.run(until=proc) == (3.0, "late")


def test_store_getters_served_in_order():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer(name):
        item = yield store.get()
        results.append((name, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))

    def producer():
        yield sim.timeout(1.0)
        store.put("x")
        store.put("y")

    sim.process(producer())
    sim.run()
    assert results == [("first", "x"), ("second", "y")]
