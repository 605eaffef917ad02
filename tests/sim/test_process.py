"""Unit tests for generator processes and condition events."""

import gc

import pytest

from repro.sim import AllOf, Resource, SimError, Simulator, Store


def test_process_consumes_timeouts():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "done"

    proc = sim.process(body())
    result = sim.run(until=proc)
    assert result == "done"
    assert sim.now == 3.0


def test_process_receives_event_values():
    sim = Simulator()

    def body():
        got = yield sim.timeout(1.0, value=7)
        return got * 2

    assert sim.run(until=sim.process(body())) == 14


def test_processes_compose():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "child-value"

    def parent():
        value = yield sim.process(child())
        return value.upper()

    assert sim.run(until=sim.process(parent())) == "CHILD-VALUE"


def test_failed_event_raises_inside_process():
    sim = Simulator()

    def body():
        evt = sim.event()
        sim.timeout(1.0).add_callback(lambda e: evt.fail(ValueError("bad")))
        try:
            yield evt
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run(until=sim.process(body())) == "caught bad"


def test_unhandled_process_exception_fails_process_event():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("kernel panic")

    proc = sim.process(body())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, RuntimeError)


def test_child_failure_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("injected fault")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError:
            return "recovered"

    assert sim.run(until=sim.process(parent())) == "recovered"


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def body():
        yield 42  # not an Event

    proc = sim.process(body())
    sim.run()
    assert isinstance(proc.exception, SimError)


def test_non_generator_body_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_allof_waits_for_every_event():
    sim = Simulator()

    def body():
        t1, t2 = sim.timeout(1.0, "a"), sim.timeout(3.0, "b")
        values = yield AllOf(sim, [t1, t2])
        return (sim.now, sorted(values.values()))

    assert sim.run(until=sim.process(body())) == (3.0, ["a", "b"])


def test_allof_fails_on_the_first_failed_event_and_only_once():
    sim = Simulator()
    failed = sim.event()
    sim.timeout(1.0).add_callback(
        lambda e: failed.fail(ValueError("engine halted")))
    late = sim.timeout(3.0, "late")
    both = AllOf(sim, [failed, late])
    fired = []
    both.add_callback(lambda e: fired.append((sim.now, e.exception)))

    def body():
        try:
            yield both
        except ValueError as exc:
            return (sim.now, str(exc))

    assert sim.run(until=sim.process(body())) == (1.0, "engine halted")
    sim.run()
    assert sim.now == 3.0 and late.processed
    assert [when for when, _ in fired] == [1.0]
    assert fired[0][1] is failed.exception


def test_allof_refuses_events_of_another_simulator():
    sim, other = Simulator(), Simulator()
    with pytest.raises(SimError, match="different simulators"):
        AllOf(sim, [sim.timeout(1.0), other.timeout(1.0)])


def test_empty_allof_triggers_immediately():
    sim = Simulator()

    def body():
        yield AllOf(sim, [])
        return sim.now

    assert sim.run(until=sim.process(body())) == 0.0


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((sim.now, name))

    sim.process(worker("a", 1.0))
    sim.process(worker("b", 1.5))
    sim.run()
    # at t=3.0 b's timeout was scheduled first (at t=1.5, vs a's at t=2.0)
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"),
                   (3.0, "a"), (4.5, "b")]


def test_finished_processes_leave_no_cyclic_garbage():
    """Spawned, joined and called processes that wait on in-place and
    queued delays, on a Store and on a Resource, are freed by reference
    counting at their last step: the cycle collector finds nothing."""
    sim = Simulator()
    store = Store(sim)
    cpu = Resource(sim, capacity=1)
    done = []

    def worker(name):
        yield from sim.delay(1.0)
        with cpu.request() as req:      # the second and third queue
            yield req
            yield from sim.delay(0.5)
        item = yield store.get()        # the first waits for the producer
        done.append((sim.now, name, item))
        return name

    def producer():
        for item in range(3):
            yield from sim.delay(2.0)
            store.put(item)

    def main():
        sim.spawn(worker("spawned"))
        joined = sim.process(worker("joined"))
        called = yield from sim.call(worker("called"))
        return called, (yield joined)

    sim.spawn(producer())
    gc.collect()
    gc.freeze()     # what exists now cannot be this run's garbage
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = sim.run(until=sim.process(main()))
        sim.run()
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()
    assert result == ("called", "joined")
    assert done == [(2.0, "spawned", 0), (4.0, "joined", 1),
                    (6.0, "called", 2)]
    assert garbage == []
