"""The engine's exact fast paths: run-ahead, inline joins, detached
spawns, in-place delays.

Each fast path skips heap round-trips only when the FIFO schedule is
already known, so a run with them must match the same run under a FIFO
controlled scheduler (which disables them) in everything a process can
observe: what it did, when, and in which order.  The property test
checks that on random process programs; the targeted tests pin the
boundary cases one at a time.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.check import ControlledScheduler, Schedule
from repro.errors import DeviceTimeout
from repro.sim import Resource, SimError, Simulator, Store, engine


def _sim(controlled):
    sim = Simulator()
    if controlled:
        sim.scheduler = ControlledScheduler(Schedule())
    return sim


def _count_steps(sim):
    steps = [0]
    step = sim.step

    def counted():
        steps[0] += 1
        step()

    sim.step = counted
    return steps


# --- random programs ---------------------------------------------------------

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])

LEAF_OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("delay"), DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("fire"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 3)),
    st.tuples(st.just("raise")),
)


def _programs(depth):
    if depth == 0:
        return st.lists(LEAF_OPS, max_size=6)
    sub = _programs(depth - 1)
    return st.lists(st.one_of(LEAF_OPS,
                              st.tuples(st.just("call"), sub),
                              st.tuples(st.just("spawn"), sub)),
                    max_size=6)


WORLDS = st.lists(_programs(2), min_size=1, max_size=3)


def _body(world, name, program):
    """One process program; logs ``(time, process, op index, action,
    result)`` for every op it completes."""
    sim, log = world.sim, world.log
    for i, op in enumerate(program):
        kind = op[0]
        if kind == "raise":
            log.append((sim.now, name, i, "raise", None))
            raise ValueError(f"{name}.{i}")
        result = None
        if kind == "timeout":
            result = yield sim.timeout(op[1], value=(name, i))
        elif kind == "delay":
            result = yield from sim.delay(op[1])
        elif kind == "put":
            world.stores[op[1]].put((name, i))
        elif kind == "get":
            result = yield world.stores[op[1]].get()
        elif kind == "hold":
            with world.resources[op[1]].request() as req:
                yield req
                yield sim.timeout(op[2])
        elif kind == "fire":
            event = world.events[op[1]]
            if not event.triggered:
                event.succeed((name, i))
        elif kind == "wait":
            result = yield world.events[op[1]]
        elif kind == "call":
            try:
                result = yield from sim.call(
                    _body(world, f"{name}.{i}", op[1]))
            except ValueError as exc:
                result = ("caught", str(exc))
        elif kind == "spawn":
            sim.spawn(_body(world, f"{name}.{i}", op[1]))
        log.append((sim.now, name, i, kind, result))
    return name


def _run_world(programs, controlled):
    sim = _sim(controlled)
    world = SimpleNamespace(
        sim=sim, log=[], procs=[],
        stores=[Store(sim), Store(sim)],
        resources=[Resource(sim, 1), Resource(sim, 2)],
        # two to fire, and two shared timeouts that resume all their
        # waiters in one step
        events=[sim.event(), sim.event(), sim.timeout(1.0),
                sim.timeout(2.0)])
    for k, program in enumerate(programs):
        world.procs.append(sim.process(_body(world, f"p{k}", program)))
    steps = _count_steps(sim)
    try:
        sim.run()
        raised = None
    except ValueError as exc:  # a detached process failed
        raised = str(exc)
    state = (sim.now, raised,
             [list(store.items) for store in world.stores],
             [(res.count, res.queued) for res in world.resources],
             [(evt.triggered, evt.processed) for evt in world.events],
             [proc.triggered for proc in world.procs])
    return world.log, state, steps[0]


@given(programs=WORLDS)
@settings(max_examples=300, deadline=None)
def test_fast_paths_match_fifo_schedule(programs):
    fast_log, fast_state, fast_steps = _run_world(programs, False)
    fifo_log, fifo_state, fifo_steps = _run_world(programs, True)
    assert fast_log == fifo_log
    assert fast_state == fifo_state
    assert fast_steps <= fifo_steps


# --- run-ahead boundaries ----------------------------------------------------

def _both(scenario):
    """Run ``scenario(sim, log)`` fast and under FIFO control; returns
    ``(fast log, steps), (fifo log, steps)``."""
    out = []
    for controlled in (False, True):
        sim = _sim(controlled)
        log = []
        steps = _count_steps(sim)
        scenario(sim, log)
        out.append((log, steps[0]))
    return out


def test_no_run_ahead_from_a_step_with_several_callbacks():
    """A resumed by an event that also resumes B must not run past B."""
    def scenario(sim, log):
        shared = sim.timeout(1.0)

        def waiter(name):
            yield shared
            log.append((sim.now, name, "woke"))
            yield sim.timeout(0.0)
            log.append((sim.now, name, "again"))

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.run()

    (fast, _), (fifo, _) = _both(scenario)
    assert fast == fifo == [(1.0, "a", "woke"), (1.0, "b", "woke"),
                            (1.0, "a", "again"), (1.0, "b", "again")]


def test_no_run_ahead_onto_an_event_with_a_waiter():
    """The next-due event already has a waiter, who resumes first."""
    def scenario(sim, log):
        gate = sim.timeout(2.0)

        def early():
            yield gate
            log.append((sim.now, "early"))

        def late():
            yield sim.timeout(1.0)
            log.append((sim.now, "late", "before"))
            yield gate  # heap[0], but early waits on it already
            log.append((sim.now, "late", "after"))

        sim.process(early())
        sim.process(late())
        sim.run()

    (fast, _), (fifo, _) = _both(scenario)
    assert fast == fifo == [(1.0, "late", "before"), (2.0, "early"),
                            (2.0, "late", "after")]


def test_run_until_time_never_passes_the_horizon():
    def scenario(sim, log):
        def ticker():
            for _ in range(10):
                yield sim.timeout(1.0)
                log.append(sim.now)

        sim.process(ticker())
        sim.run(until=2.5)
        log.append(("stopped", sim.now, sim.peek()))
        sim.run(until=4.0)  # an event due exactly at the horizon runs
        log.append(("stopped", sim.now, sim.peek()))

    (fast, fast_steps), (fifo, fifo_steps) = _both(scenario)
    assert fast == fifo == [1.0, 2.0, ("stopped", 2.5, 3.0), 3.0, 4.0,
                            ("stopped", 4.0, 5.0)]
    assert fast_steps < fifo_steps


def test_run_until_event_stops_at_the_same_step():
    def scenario(sim, log):
        def quick():
            yield sim.timeout(1.0)
            log.append((sim.now, "quick"))

        def busy():
            yield sim.timeout(1.0)
            for _ in range(3):
                yield sim.timeout(0.0)
                log.append((sim.now, "busy"))

        target = sim.process(quick())
        sim.process(busy())
        sim.run(until=target)
        log.append(("stopped", sim.now, len(sim._heap)))

    (fast, _), (fifo, _) = _both(scenario)
    assert fast == fifo
    assert fast[-1] == ("stopped", 1.0, 1)


def test_manual_step_processes_exactly_one_event():
    sim = Simulator()
    log = []

    def chain():
        for i in range(3):
            yield sim.timeout(0.0)
            log.append(i)

    sim.process(chain())
    sim.step()  # the start
    assert log == [] and len(sim._heap) == 1
    sim.step()
    assert log == [0] and len(sim._heap) == 1
    sim.run()
    assert log == [0, 1, 2]


def test_waits_on_a_processed_event_resume_in_one_loop():
    """Thousands of waits in a row on an already-processed event each
    resume the process at once, in the loop of the one delivery that
    runs it, not one nested delivery per wait."""
    waits = 5000
    runs = []
    for controlled in (False, True):
        sim = _sim(controlled)
        resumed = []  # (step, process) per resumption hook call
        if controlled:
            scheduler = sim.scheduler
            hook = scheduler.on_process_resumed

            def on_process_resumed(process):
                resumed.append((len(scheduler.steps), process))
                hook(process)

            scheduler.on_process_resumed = on_process_resumed
        done = sim.event()
        done.succeed("value")
        log = []

        def waiter():
            for _ in range(waits):
                log.append((sim.now, (yield done)))
            return "done"

        proc = sim.process(waiter())
        steps = _count_steps(sim)
        sim.run()
        runs.append((log, (sim.now, proc.value, done.processed), steps[0]))
    (fast_log, fast_state, fast_steps), fifo = runs
    assert fast_log == [(0.0, "value")] * waits
    assert (fast_log, fast_state, fast_steps) == fifo
    # FIFO: ``done``, the start (every wait resumed inside it), the end
    assert fast_steps == 3
    assert resumed == [(2, proc)]
    assert [rec.resumed_ids for rec in scheduler.steps] \
        == [set(), {id(proc)}, set()]


def test_exception_thrown_into_a_process_running_ahead():
    def scenario(sim, log):
        def runner():
            yield sim.timeout(1.0)
            failed = sim.event()
            failed.fail(DeviceTimeout("engine wedged"))
            try:
                yield failed  # heap[0]: popped in place, thrown here
            except DeviceTimeout as exc:
                log.append((sim.now, "caught", str(exc)))
            yield sim.timeout(0.0)
            log.append((sim.now, "done"))

        sim.process(runner())
        sim.run()

    (fast, fast_steps), (fifo, fifo_steps) = _both(scenario)
    assert fast == fifo == [(1.0, "caught", "engine wedged"), (1.0, "done")]
    assert fast_steps < fifo_steps


# --- in-place delays ---------------------------------------------------------

@pytest.fixture
def timeouts(monkeypatch):
    """The delays of the ``Timeout``s ``sim.timeout`` and ``sim.delay``
    build, in order."""
    built = []

    class Counted(engine.Timeout):
        __slots__ = ()

        def __init__(self, sim, delay, value=None):
            super().__init__(sim, delay, value)
            built.append(delay)

    monkeypatch.setattr(engine, "Timeout", Counted)
    return built


def test_delay_advances_in_place_when_its_timeout_would_pop_next(timeouts):
    def scenario(sim, log):
        def delayer():
            yield from sim.delay(1.0)
            log.append(sim.now)
            yield from sim.delay(0.0)
            log.append(sim.now)

        sim.process(delayer())
        sim.run()

    (fast, fast_steps), (fifo, fifo_steps) = _both(scenario)
    assert fast == fifo == [1.0, 1.0]
    # FIFO: the start, both delays' Timeouts and the end; fast: the
    # start and the end
    assert (fast_steps, fifo_steps) == (2, 4)
    assert timeouts == [1.0, 0.0]  # both from the FIFO run


def test_delay_does_not_advance_onto_an_entry_due_at_its_end(timeouts):
    """Another process's timeout due at exactly ``now + d`` was queued
    first, so it fires first: the delay is a Timeout behind it."""
    def scenario(sim, log):
        def neighbour():
            yield sim.timeout(2.0)
            log.append((sim.now, "neighbour"))

        def delayer():
            yield from sim.delay(2.0)
            log.append((sim.now, "delayer"))

        sim.process(neighbour())
        sim.process(delayer())
        sim.run()

    (fast, _), (fifo, _) = _both(scenario)
    assert fast == fifo == [(2.0, "neighbour"), (2.0, "delayer")]
    assert timeouts == [2.0, 2.0] * 2


def test_delay_does_not_advance_past_the_run_horizon(timeouts):
    sim = Simulator()
    log = []

    def delayer():
        yield from sim.delay(1.0)
        log.append(sim.now)
        yield from sim.delay(1.5)  # ends on the horizon: in place
        log.append(sim.now)
        yield from sim.delay(1.0)  # ends past it: a Timeout
        log.append(sim.now)

    sim.process(delayer())
    sim.run(until=2.5)
    assert log == [1.0, 2.5] and sim.now == 2.5 and sim.peek() == 3.5
    assert timeouts == [1.0]
    sim.run()
    assert log == [1.0, 2.5, 3.5]


def test_delay_does_not_advance_from_a_bare_step(timeouts):
    sim = Simulator()
    log = []

    def delayer():
        yield from sim.delay(1.0)
        log.append(sim.now)

    sim.process(delayer())
    sim.step()  # the start: the delay posts its Timeout
    assert log == [] and sim.peek() == 1.0 and timeouts == [1.0]
    sim.step()
    assert log == [1.0] and sim.now == 1.0


def test_delay_is_a_timeout_with_a_scheduler_installed(timeouts):
    sim = _sim(controlled=True)
    assert sim.delay.__func__ is Simulator._delay_observed
    steps = _count_steps(sim)

    def delayer():
        yield from sim.delay(1.0)
        yield from sim.delay(0.0)

    sim.process(delayer())
    sim.run()
    assert timeouts == [1.0, 0.0] and steps[0] == 4 and sim.now == 1.0
    sim.scheduler = None
    assert sim.delay.__func__ is Simulator._delay_fast


def test_every_positive_delay_reaches_the_wait_monitor(timeouts):
    sim = Simulator()
    seen = []
    sim.wait_monitor = SimpleNamespace(on_timed_wait=seen.append)
    assert sim.delay.__func__ is Simulator._delay_observed

    def delayer():
        yield from sim.delay(1.0)
        yield from sim.delay(0.0)
        yield from sim.delay(2.5)

    sim.process(delayer())
    sim.run()
    assert seen == [1.0, 2.5] and timeouts == [1.0, 0.0, 2.5]
    assert sim.now == 3.5
    sim.wait_monitor = None
    assert sim.delay.__func__ is Simulator._delay_fast


# --- inline joins and detached spawns ----------------------------------------

def test_call_returns_the_child_value_without_steps_of_its_own():
    def scenario(sim, log):
        def child():
            yield sim.timeout(1.0)
            return 42

        def parent():
            value = yield from sim.call(child())
            log.append((sim.now, value))

        sim.process(parent())
        sim.run()

    (fast, fast_steps), (fifo, fifo_steps) = _both(scenario)
    assert fast == fifo == [(1.0, 42)]
    # FIFO: parent start, child start, timeout, child end, parent end;
    # fast: the parent's start and its one timeout, both run in-frame
    assert (fast_steps, fifo_steps) == (2, 5)


def test_call_posts_start_and_end_events_when_not_alone():
    """Another event due at the same instant keeps both events posted,
    so the other process still runs between them."""
    def scenario(sim, log):
        def child():
            log.append((sim.now, "child"))
            yield sim.timeout(0.0)
            return "c"

        def parent():
            yield sim.timeout(1.0)
            value = yield from sim.call(child())
            log.append((sim.now, "parent", value))

        def neighbour():
            yield sim.timeout(1.0)
            log.append((sim.now, "neighbour"))

        sim.process(parent())
        sim.process(neighbour())
        sim.run()

    (fast, _), (fifo, _) = _both(scenario)
    assert fast == fifo == [(1.0, "neighbour"), (1.0, "child"),
                            (1.0, "parent", "c")]


def test_call_propagates_the_child_exception_typed():
    def scenario(sim, log):
        def child():
            yield sim.timeout(1.0)
            raise DeviceTimeout("child wedged")

        def parent():
            try:
                yield from sim.call(child())
            except DeviceTimeout as exc:
                log.append((sim.now, type(exc).__name__, str(exc)))

        sim.process(parent())
        sim.run()

    (fast, _), (fifo, _) = _both(scenario)
    assert fast == fifo == [(1.0, "DeviceTimeout", "child wedged")]


def test_call_rejects_a_non_generator():
    sim = Simulator()

    def parent():
        yield from sim.call(42)

    proc = sim.process(parent())
    sim.run()
    assert isinstance(proc.exception, SimError)


def test_spawn_posts_no_completion_event():
    def scenario(sim, log):
        def detached():
            yield sim.timeout(1.0)
            log.append(sim.now)

        sim.spawn(detached())
        sim.run()

    (fast, fast_steps), (fifo, fifo_steps) = _both(scenario)
    assert fast == fifo == [1.0]
    # FIFO: start, timeout, completion; fast: the start, which runs
    # ahead through the timeout, and no completion
    assert (fast_steps, fifo_steps) == (1, 3)


@pytest.mark.parametrize("controlled", [False, True], ids=["fast", "fifo"])
def test_detached_failure_propagates_out_of_run(controlled):
    sim = _sim(controlled)
    error = DeviceTimeout("nobody joins me")

    def detached():
        yield sim.timeout(1.0)
        raise error

    sim.spawn(detached())
    with pytest.raises(DeviceTimeout) as info:
        sim.run()
    assert info.value is error
    assert sim.now == 1.0


@pytest.mark.parametrize("controlled", [False, True], ids=["fast", "fifo"])
def test_detached_failure_propagates_out_of_step(controlled):
    sim = _sim(controlled)

    def detached():
        raise KeyError("typed")
        yield  # pragma: no cover - makes this a generator

    sim.spawn(detached())
    with pytest.raises(KeyError):
        sim.step()


def test_joined_process_failure_still_goes_to_its_waiter():
    """``sim.process`` keeps today's behaviour: the failure is the
    process event's, thrown into whoever waits on it."""
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise DeviceTimeout("joined")

    def parent():
        try:
            yield sim.process(child())
        except DeviceTimeout as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["joined"]
