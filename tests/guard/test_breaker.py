"""The PathBreaker FSM: failover thresholds, probe backoff, failback
hysteresis and transition legality."""

import pytest

from repro.errors import ReproError
from repro.guard import (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_PROBING,
                         GuardPolicy, PathBreaker)
from repro.guard.breaker import LEGAL_TRANSITIONS
from repro.sim import Simulator, Tracer
from repro.units import USEC

POLICY_KW = dict(failure_window=4, failure_threshold=2, probe_successes=2,
                 probe_backoff=100 * USEC, probe_backoff_factor=2.0,
                 probe_backoff_max=400 * USEC,
                 qdepth=8, nr_congestion_on=6, nr_congestion_off=2)


def make_breaker(**overrides):
    sim = Simulator()
    policy = GuardPolicy(**{**POLICY_KW, **overrides})
    tracer = Tracer()
    breaker = PathBreaker(sim, policy, "node0", "engine0", tracer=tracer)
    return sim, tracer, breaker


def record_edges(breaker):
    """The ``(old, new)`` edges ``breaker`` takes from now on."""
    edges = []
    take = breaker._transition

    def recorded(new_state, reason):
        if new_state != breaker.state:
            edges.append((breaker.state, new_state))
        take(new_state, reason)

    breaker._transition = recorded
    return edges


def open_breaker(breaker):
    for _ in range(breaker.policy.failure_threshold):
        breaker.record_failure("test fault")
    assert breaker.state == BREAKER_OPEN


def test_starts_closed_and_admitting():
    _sim, _tracer, b = make_breaker()
    assert b.state == BREAKER_CLOSED
    assert b.admits()
    assert b.violations == []


def test_failures_below_threshold_stay_closed():
    _sim, tracer, b = make_breaker()
    b.record_failure("one-off")
    assert b.state == BREAKER_CLOSED and b.admits()
    assert tracer.counters.get("guard.failovers", 0) == 0


def test_opens_at_threshold_and_stops_admitting():
    _sim, tracer, b = make_breaker()
    edges = record_edges(b)
    open_breaker(b)
    assert not b.admits()
    assert tracer.counters["guard.failovers"] == 1
    assert tracer.counters["guard.failovers.node0.engine0"] == 1
    assert edges == [(BREAKER_CLOSED, BREAKER_OPEN)]


def test_window_slides_old_failures_out():
    """Window 4 / threshold 2: a failure, three successes, then another
    failure — the first failure has aged out, so the breaker holds."""
    _sim, _tracer, b = make_breaker()
    b.record_failure()
    for _ in range(3):
        b.record_success()
    b.record_failure()
    assert b.state == BREAKER_CLOSED


def test_probe_timer_moves_open_to_probing():
    sim, _tracer, b = make_breaker()
    open_breaker(b)
    sim.run()
    assert b.state == BREAKER_PROBING
    assert sim.now == pytest.approx(b.policy.probe_backoff)


def test_probing_admits_exactly_one_probe():
    sim, _tracer, b = make_breaker()
    open_breaker(b)
    sim.run()
    assert b.admits()
    b.begin_probe()
    assert not b.admits()


def test_failback_after_consecutive_probe_successes():
    sim, tracer, b = make_breaker()
    open_breaker(b)
    sim.run()
    b.begin_probe()
    b.record_success()
    assert b.state == BREAKER_PROBING  # hysteresis: one win is not enough
    b.begin_probe()
    b.record_success()
    assert b.state == BREAKER_CLOSED
    assert tracer.counters["guard.failbacks"] == 1
    assert b.backoff == pytest.approx(b.policy.probe_backoff)
    # the failure window was wiped: old faults cannot re-open the breaker
    assert b._failure_count() == 0


def test_probe_failure_reopens_and_grows_backoff():
    sim, _tracer, b = make_breaker()
    open_breaker(b)
    sim.run()
    b.begin_probe()
    b.record_failure("probe bounced")
    assert b.state == BREAKER_OPEN
    assert b.backoff == pytest.approx(200 * USEC)
    sim.run()
    assert b.state == BREAKER_PROBING
    b.begin_probe()
    b.record_failure("probe bounced again")
    assert b.backoff == pytest.approx(400 * USEC)
    b.record_failure()  # while OPEN: window only, backoff untouched
    sim.run()
    b.begin_probe()
    b.record_failure("third bounce")
    assert b.backoff == pytest.approx(400 * USEC)  # capped at the max


def test_success_while_open_is_legal_and_harmless():
    """A request admitted before failover may complete late; it must not
    close the breaker or register as a transition."""
    _sim, _tracer, b = make_breaker()
    open_breaker(b)
    edges = record_edges(b)
    b.record_success()
    assert b.state == BREAKER_OPEN
    assert edges == []


def test_begin_probe_outside_probing_raises():
    sim, _tracer, b = make_breaker()
    with pytest.raises(ReproError):
        b.begin_probe()
    open_breaker(b)
    with pytest.raises(ReproError):
        b.begin_probe()


def test_full_cycle_uses_only_legal_edges():
    sim, _tracer, b = make_breaker(probe_successes=1)
    edges = record_edges(b)
    for _round in range(3):
        open_breaker(b)
        sim.run()
        b.begin_probe()
        b.record_success()
        assert b.state == BREAKER_CLOSED
    assert len(edges) == 9
    assert all(edge in LEGAL_TRANSITIONS for edge in edges)
    assert b.violations == []


def test_policy_validates_itself():
    with pytest.raises(ReproError):
        GuardPolicy(**{**POLICY_KW, "failure_threshold": 9})  # > window
    with pytest.raises(ReproError):
        GuardPolicy(**{**POLICY_KW, "nr_congestion_off": 7})  # off >= on
    with pytest.raises(ReproError):
        GuardPolicy(**{**POLICY_KW, "probe_backoff": 0.0})
