"""Unit tests for the discrete-event engine: clock, ordering, run modes."""

import pytest

from repro.sim import SimError, Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.timeout(-1.0)


NAN = float("nan")


def test_nan_timeout_rejected():
    """NaN compares false with everything, so ``delay < 0`` let it
    through and it reached the heap as a time."""
    sim = Simulator()
    with pytest.raises(SimError):
        sim.timeout(NAN)
    assert sim.peek() == float("inf")


def test_nan_delay_rejected_in_place():
    """A process holding the run-ahead right with nothing queued, where
    a finite delay advances the clock in place."""
    sim = Simulator()
    clocks = []

    def waiter():
        yield from sim.delay(1.0)       # in place
        clocks.append(sim.now)
        yield from sim.delay(NAN)

    sim.spawn(waiter())
    with pytest.raises(SimError):
        sim.run()
    assert clocks == [1.0] and sim.now == 1.0


def test_nan_delay_rejected_when_queued():
    """Waits of 2.0, NaN, 1.0 and 3.0 from one instant: the NaN one is
    refused, and the others still resume in time order with a finite
    clock."""
    sim = Simulator()
    resumed = []

    def waiter(d):
        try:
            yield from sim.delay(d)
        except SimError:
            resumed.append(("refused", d != d))
            return
        resumed.append((d, sim.now))

    for d in (2.0, NAN, 1.0, 3.0):
        sim.process(waiter(d))
    sim.run()
    assert resumed == [("refused", True), (1.0, 1.0), (2.0, 2.0),
                       (3.0, 3.0)]


def test_run_until_nan_rejected():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(sim.now))
    with pytest.raises(SimError):
        sim.run(until=NAN)
    assert sim.now == 0.0 and fired == []
    sim.run()
    assert fired == [1.0]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_sets_value():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(42)
    sim.run()
    assert evt.processed and evt.ok and evt.value == 42


def test_event_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimError):
        evt.succeed(2)
    with pytest.raises(SimError):
        evt.fail(RuntimeError("boom"))


def test_event_fail_raises_on_value_access():
    sim = Simulator()
    evt = sim.event()
    evt.fail(RuntimeError("boom"))
    sim.run()
    assert not evt.ok
    with pytest.raises(RuntimeError):
        _ = evt.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        _ = sim.event().value


def test_late_callback_runs_immediately():
    sim = Simulator()
    evt = sim.timeout(1.0, value="x")
    sim.run()
    seen = []
    evt.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(1))
    sim.timeout(5.0).add_callback(lambda e: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1] and sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=3.0)
    with pytest.raises(SimError):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()
    assert sim.run(until=sim.timeout(1.5, value="done")) == "done"
    assert sim.now == 1.5


def test_run_until_untriggerable_event_raises_deadlock():
    sim = Simulator()
    orphan = sim.event()  # never triggered
    with pytest.raises(SimError, match="deadlock"):
        sim.run(until=orphan)


def test_step_on_empty_queue_rejected():
    with pytest.raises(SimError):
        Simulator().step()


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_callbacks_see_current_sim_time():
    sim = Simulator()
    stamps = []
    sim.timeout(1.0).add_callback(lambda e: stamps.append(sim.now))
    sim.timeout(2.0).add_callback(lambda e: stamps.append(sim.now))
    sim.run()
    assert stamps == [1.0, 2.0]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    order = []

    def chain(e):
        order.append(sim.now)
        if sim.now < 3.0:
            sim.timeout(1.0).add_callback(chain)

    sim.timeout(1.0).add_callback(chain)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


# --- the pinned tie-break policy and the controlled-scheduler hook -----------

class RecordingScheduler:
    """Minimal stand-in for the PicoCheck scheduler: records choice
    points, answers with a configured pick (default 0 = FIFO)."""

    def __init__(self, picks=None):
        self.picks = dict(picks or {})
        self.choice_points = []
        self.steps = 0

    def choose_ready(self, when, ready):
        index = len(self.choice_points)
        self.choice_points.append((when, len(ready)))
        return self.picks.get(index, 0)

    def on_step_begin(self, when, seq, event):
        self.steps += 1

    def on_step_end(self):
        pass

    def on_process_resumed(self, process):
        pass


def test_tie_break_pinned_fifo_even_when_scheduled_from_callbacks():
    """The tie-break contract: same-time events fire in insertion order
    even when an event is inserted *from a callback* running at that
    same timestamp — it queues behind everything already scheduled."""
    sim = Simulator()
    order = []

    def first(evt):
        order.append("a")
        sim.timeout(0.0).add_callback(lambda e: order.append("c"))

    sim.timeout(1.0).add_callback(first)
    sim.timeout(1.0).add_callback(lambda e: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def _three_at_once(sim, order):
    for name in ("a", "b", "c"):
        sim.timeout(1.0).add_callback(lambda e, n=name: order.append(n))
    sim.timeout(2.0).add_callback(lambda e: order.append("late"))


def test_scheduler_surfaces_multi_ready_sets_as_choice_points():
    sim = Simulator()
    order = []
    _three_at_once(sim, order)
    sched = RecordingScheduler()
    sim.scheduler = sched
    sim.run()
    # step 1 sees [a, b, c]; b and c are re-queued so step 2 sees
    # [b, c]; singletons (c alone, the late event) are not choices
    assert sched.choice_points == [(1.0, 3), (1.0, 2)]
    assert sched.steps == 4
    assert order == ["a", "b", "c", "late"]


def test_scheduler_default_pick_matches_uncontrolled_run():
    runs = []
    for controlled in (False, True):
        sim = Simulator()
        order = []
        _three_at_once(sim, order)
        if controlled:
            sim.scheduler = RecordingScheduler()
        sim.run()
        runs.append(order)
    assert runs[0] == runs[1]


def test_scheduler_pick_overrides_fifo_and_preserves_rest():
    sim = Simulator()
    order = []
    _three_at_once(sim, order)
    sim.scheduler = RecordingScheduler(picks={0: 2})
    sim.run()
    # promoting c must not reorder a and b among themselves
    assert order == ["c", "a", "b", "late"]


def test_scheduler_out_of_range_pick_rejected():
    sim = Simulator()
    order = []
    _three_at_once(sim, order)
    sim.scheduler = RecordingScheduler(picks={0: 7})
    with pytest.raises(SimError):
        sim.run()


def test_monitor_installation_rebinds_the_hot_dispatch():
    """The flattened hot loop: with no monitors installed, ``step``,
    ``timeout`` and ``delay`` are the fast variants (zero per-event
    branches); installing a scheduler or wait monitor swaps in the
    instrumented variant, and uninstalling swaps the fast one back."""
    sim = Simulator()
    assert sim.step.__func__ is Simulator._step_fast
    assert sim.timeout.__func__ is Simulator._timeout_fast
    assert sim.delay.__func__ is Simulator._delay_fast

    sim.scheduler = RecordingScheduler()
    assert sim.step.__func__ is Simulator._step_controlled
    assert sim.delay.__func__ is Simulator._delay_observed
    sim.scheduler = None
    assert sim.step.__func__ is Simulator._step_fast
    assert sim.delay.__func__ is Simulator._delay_fast

    class Monitor:
        seen = 0.0

        def on_timed_wait(self, delay):
            self.seen += delay

    monitor = Monitor()
    sim.wait_monitor = monitor
    assert sim.timeout.__func__ is Simulator._timeout_observed
    assert sim.delay.__func__ is Simulator._delay_observed
    sim.timeout(2.5)
    assert monitor.seen == 2.5
    sim.wait_monitor = None
    assert sim.timeout.__func__ is Simulator._timeout_fast
    assert sim.delay.__func__ is Simulator._delay_fast
    sim.timeout(1.0)
    assert monitor.seen == 2.5          # uninstalled monitors see nothing


def test_dispatch_variants_run_the_same_schedule():
    """Fast and instrumented stepping produce the identical event
    order (the rebinding is an optimization, not a semantic switch)."""
    runs = []
    for instrumented in (False, True):
        sim = Simulator()
        order = []
        _three_at_once(sim, order)
        if instrumented:
            sim.wait_monitor = type("M", (), {
                "on_timed_wait": lambda self, d: None})()
        sim.run()
        runs.append(order)
    assert runs[0] == runs[1]
