"""GuardManager: dispatch-time admission, healthy-engine selection,
suspend/resume parking, and the PicoCheck oracle surface."""

from types import SimpleNamespace

import pytest

from repro.errors import FastPathUnavailable, ReproError
from repro.guard import (BREAKER_CLOSED, BREAKER_PROBING, GuardManager,
                         GuardPolicy)
from repro.sim import Simulator, Tracer
from repro.units import USEC

POLICY_KW = dict(failure_window=4, failure_threshold=1, probe_successes=1,
                 probe_backoff=100 * USEC, probe_backoff_factor=2.0,
                 probe_backoff_max=400 * USEC,
                 qdepth=8, nr_congestion_on=6, nr_congestion_off=2)


def make_manager(n_engines=2):
    sim = Simulator()
    tracer = Tracer()
    manager = GuardManager(sim, GuardPolicy(**POLICY_KW), n_engines,
                           tracer=tracer, label="node0")
    hfi = SimpleNamespace(engines=[SimpleNamespace(index=i)
                                   for i in range(n_engines)])
    return sim, tracer, manager, hfi


def test_paths_cover_engines_plus_offload():
    _sim, _tracer, manager, _hfi = make_manager(3)
    assert set(manager.breakers) == {"engine0", "engine1", "engine2",
                                     "offload"}
    assert len(manager.gates) == 3


def test_admits_only_gates_writev():
    _sim, _tracer, manager, _hfi = make_manager()
    for path in ("engine0", "engine1"):
        manager.record_failure(path, "down")
    assert not manager.admits("writev")
    # PIO sends and TID updates never depend on SDMA engine health
    assert manager.admits("ioctl") and manager.admits("read")


def test_admits_writev_while_any_engine_lives():
    _sim, _tracer, manager, _hfi = make_manager()
    manager.record_failure("engine0", "down")
    assert manager.admits("writev")
    # the offload breaker is record-only: opening it changes nothing
    manager.record_failure("offload", "proxy sick")
    assert manager.admits("writev")


def test_pick_healthy_engine_routes_around_open_breaker():
    _sim, _tracer, manager, hfi = make_manager()
    manager.record_failure("engine0", "down")
    picked = {manager.pick_healthy_engine(hfi).index for _ in range(4)}
    assert picked == {1}


def test_pick_healthy_engine_raises_when_all_down():
    _sim, _tracer, manager, hfi = make_manager()
    manager.record_failure("engine0", "down")
    manager.record_failure("engine1", "down")
    with pytest.raises(FastPathUnavailable):
        manager.pick_healthy_engine(hfi)


def test_probing_pick_marks_the_probe_in_flight():
    sim, tracer, manager, hfi = make_manager(1)
    manager.record_failure("engine0", "down")
    sim.run()  # probe backoff elapses
    breaker = manager.breakers["engine0"]
    assert breaker.state == BREAKER_PROBING
    assert manager.pick_healthy_engine(hfi).index == 0
    assert breaker.probe_inflight
    assert tracer.counters["guard.probes"] == 1
    with pytest.raises(FastPathUnavailable):
        manager.pick_healthy_engine(hfi)  # one probe at a time
    manager.record_success("engine0")
    assert breaker.state == BREAKER_CLOSED


def test_suspend_waits_for_gates_to_drain():
    sim, tracer, manager, _hfi = make_manager()
    manager.gates[0]._admit(3)
    done = []

    def suspender():
        yield from manager.suspend()
        done.append(sim.now)

    sim.process(suspender())
    sim.run()
    assert manager.suspended and done == []  # in-flight work still draining
    manager.gates[0].release_slots(3)
    sim.run()
    assert done  # drain observed via note_drain
    assert tracer.counters["guard.suspends"] == 1


def test_park_and_resume_replays_in_arrival_order():
    sim, tracer, manager, _hfi = make_manager()

    def suspender():
        yield from manager.suspend()

    sim.process(suspender())
    sim.run()
    order = []

    def request(tag):
        yield from manager.park_if_suspended()
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(request(tag))
    sim.run()
    assert order == [] and tracer.counters["guard.parked"] == 3
    manager.resume()
    sim.run()
    assert order == ["a", "b", "c"]
    assert tracer.counters["guard.resumes"] == 1


def test_park_is_a_noop_while_live():
    sim, tracer, manager, _hfi = make_manager()
    order = []

    def request():
        yield from manager.park_if_suspended()
        order.append("ran")

    sim.process(request())
    sim.run()
    assert order == ["ran"]
    assert "guard.parked" not in tracer.counters


def test_double_suspend_and_stray_resume_raise():
    sim, _tracer, manager, _hfi = make_manager()
    with pytest.raises(ReproError):
        manager.resume()

    def suspender():
        yield from manager.suspend()

    sim.process(suspender())
    sim.run()
    with pytest.raises(ReproError):
        next(manager.suspend())


def test_fsm_violations_flags_illegal_edges():
    """Each breaker judges its edge when it takes it and records an
    illegal one in its manager's ``violations``."""
    sim, _tracer, manager, hfi = make_manager(1)
    manager.record_failure("engine0", "down")
    sim.run()
    manager.record_success("engine0")  # legal full cycle
    breaker = manager.breakers["engine0"]
    assert breaker.state == BREAKER_CLOSED and manager.violations == []
    breaker._transition(BREAKER_PROBING, "forged")
    assert len(manager.violations) == 1
    assert manager.violations[0].startswith(
        "node0/engine0: illegal closed->probing")
    assert breaker.violations is manager.violations


def test_negative_gate_accounting_is_a_violation():
    """Releasing a slot on an idle gate is recorded before the count
    clamps at zero."""
    _sim, _tracer, manager, _hfi = make_manager()
    manager.gates[0].release_slots(1)
    assert manager.gates[0].outstanding == 0
    assert manager.violations == ["node0/engine0: outstanding went negative"]
