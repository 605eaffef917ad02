"""CongestionGate watermark semantics: high/low hysteresis, FIFO
parking, and the oversized-group-admitted-alone rule."""

from repro.guard import CongestionGate, GuardPolicy
from repro.sim import Simulator, Tracer
from repro.units import USEC

POLICY_KW = dict(failure_window=4, failure_threshold=2, probe_successes=2,
                 probe_backoff=100 * USEC, probe_backoff_factor=2.0,
                 probe_backoff_max=400 * USEC,
                 qdepth=8, nr_congestion_on=6, nr_congestion_off=2)


class DrainLog:
    """Stand-in manager recording note_drain callbacks and violations."""

    def __init__(self):
        self.calls = 0
        self.violations = []

    def note_drain(self):
        self.calls += 1


def make_gate(manager=None):
    sim = Simulator()
    tracer = Tracer()
    gate = CongestionGate(sim, GuardPolicy(**POLICY_KW), "node0", "engine0",
                          tracer=tracer, manager=manager)
    return sim, tracer, gate


def acquire(sim, gate, n, order=None, tag=None):
    """Spawn a process acquiring ``n`` slots; record ``tag`` on grant."""
    def body():
        yield from gate.acquire_slots(n)
        if order is not None:
            order.append(tag)
    return sim.process(body())


def test_uncongested_acquire_is_immediate():
    sim, tracer, gate = make_gate()
    acquire(sim, gate, 4)
    sim.run()
    assert gate.outstanding == 4 and not gate.congested
    assert "guard.congestion_waits" not in tracer.counters


def test_congests_at_high_watermark_only():
    sim, tracer, gate = make_gate()
    acquire(sim, gate, 5)
    sim.run()
    assert not gate.congested
    acquire(sim, gate, 1)
    sim.run()
    assert gate.congested
    assert tracer.counters["guard.congestion_on"] == 1


def test_clears_at_low_watermark_with_hysteresis():
    sim, tracer, gate = make_gate()
    acquire(sim, gate, 6)
    sim.run()
    gate.release_slots(3)  # outstanding 3: above off-mark, still congested
    assert gate.congested
    gate.release_slots(1)  # outstanding 2 == nr_congestion_off: clears
    assert not gate.congested
    assert tracer.counters["guard.congestion_off"] == 1


def test_congested_acquire_parks_until_drain():
    sim, tracer, gate = make_gate()
    order = []
    acquire(sim, gate, 6)
    sim.run()
    acquire(sim, gate, 2, order, "late")
    sim.run()
    assert order == [] and gate.outstanding == 6
    assert tracer.counters["guard.congestion_waits"] == 1
    gate.release_slots(4)
    sim.run()
    assert order == ["late"] and gate.outstanding == 4


def test_fifo_no_overtaking():
    """A small reservation behind a large one never jumps the queue,
    even when it alone would fit."""
    sim, _tracer, gate = make_gate()
    order = []
    acquire(sim, gate, 6)
    sim.run()
    acquire(sim, gate, 8, order, "big")
    acquire(sim, gate, 1, order, "small")
    sim.run()
    gate.release_slots(5)  # outstanding 1: uncongested, but big won't fit
    sim.run()
    assert order == []  # small stayed parked behind big
    gate.release_slots(1)  # idle: big admitted alone, small still waits
    sim.run()
    assert order == ["big"]
    gate.release_slots(8)
    sim.run()
    assert order == ["big", "small"]


def test_oversized_group_admitted_alone_when_idle():
    """A group larger than qdepth (a multi-hundred descriptor rendezvous
    window) must not wedge: an idle gate admits it alone."""
    sim, _tracer, gate = make_gate()
    order = []
    acquire(sim, gate, 20, order, "huge")
    sim.run()
    assert order == ["huge"]
    assert gate.outstanding == 20 and gate.congested


def test_oversized_group_waits_while_busy():
    sim, _tracer, gate = make_gate()
    order = []
    acquire(sim, gate, 4)
    sim.run()
    acquire(sim, gate, 20, order, "huge")
    sim.run()
    assert order == []
    gate.release_slots(4)
    sim.run()
    assert order == ["huge"] and gate.outstanding == 20


def test_release_clamps_at_zero_and_notifies_manager():
    log = DrainLog()
    sim, _tracer, gate = make_gate(manager=log)
    acquire(sim, gate, 3)
    sim.run()
    gate.release_slots(5)
    assert gate.outstanding == 0
    assert log.calls == 1
    assert log.violations == ["node0/engine0: outstanding went negative"]
