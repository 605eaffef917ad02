"""Generator-based simulation processes and event combinators.

A process body is a Python generator that ``yield``s :class:`Event`s; the
process suspends until the yielded event triggers, then resumes with the
event's value (or has the event's exception thrown into it).  A process is
itself an :class:`Event` that triggers with the generator's return value, so
processes compose (``yield sim.process(sub())``, or ``yield from
sim.call(sub())``, which runs the child in the caller's frame).
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Generator, Iterable

from .engine import Event, SimError, Simulator, Timeout


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """An event that completes when its generator returns."""

    __slots__ = ("_gen", "_waiting_on", "_resume_cb", "_calls")

    #: a detached process (:meth:`Simulator.spawn`) has no waiter: it
    #: ends without posting, and its failure propagates out of the step
    _detached = False

    def __init__(self, sim: Simulator, gen: Generator):
        if not hasattr(gen, "send"):
            raise SimError(f"process body must be a generator, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
        #: open ``sim.call`` joins this process is running
        self._calls = 0
        #: the bound ``_resume``, made once: every wait appends it
        self._resume_cb = resume = self._resume
        # the start wait: a zero-delay Timeout (which no wait monitor
        # observes), with the callback appended as add_callback would
        start = Timeout(sim, 0.0)
        start.callbacks.append(resume)
        self._waiting_on: Event = start

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on keeps running; the process is
        simply no longer waiting on it.

        A process inside ``sim.call`` runs its child in its own frame, so
        an interrupt cannot reach the join the way it reaches ``yield
        sim.process(...)``: it raises :class:`SimError` here, or out of
        the step that delivers it if the process entered the call in
        between.
        """
        if self.triggered:
            raise SimError("cannot interrupt a finished process")
        self._check_interruptible()
        waited = self._waiting_on
        interrupt_evt = Event(self.sim)
        interrupt_evt.add_callback(
            lambda e: self._interrupted(waited, cause))
        interrupt_evt.succeed()

    # -- internal --------------------------------------------------------

    def _check_interruptible(self) -> None:
        if self._calls:
            raise SimError("cannot interrupt a process inside sim.call(): "
                           "the child runs in its frame")

    def _interrupted(self, waited: Event, cause: Any) -> None:
        self._check_interruptible()
        self._deliver(waited, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up after an interrupt
        self._deliver(event, None)

    def _deliver(self, event: Event, interrupt: Any) -> None:
        self._waiting_on = None  # type: ignore[assignment]
        sim = self.sim
        prev_active = sim.active_process
        sim.active_process = self
        scheduler = sim._scheduler
        if scheduler is not None:
            # PicoCheck footprint recording: which processes a step
            # resumed is half of the explorer's independence relation
            scheduler.on_process_resumed(self)
        elif sim._sole is event and sim.now <= sim._horizon:
            # resumed as the sole callback of the stepped event inside
            # run(): nothing else happens in this step, so this process
            # may run ahead (see the engine module docstring)
            sim._sole = self
        gen = self._gen
        try:
            while True:
                try:
                    if interrupt is not None:
                        target = gen.throw(interrupt)
                    elif event._exc is not None:
                        target = gen.throw(event._exc)
                    else:
                        target = gen.send(event._value)
                except StopIteration as stop:
                    if self._detached and scheduler is None:
                        # nobody waits on a detached process: done,
                        # without a completion event
                        self._triggered = True
                        self._value = stop.value
                    else:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    if self._detached:
                        raise  # no waiter to hand the failure to
                    # Fail the process event; the exception propagates
                    # into any process waiting on this one
                    # (failure-injection tests rely on this instead of
                    # crashing the event loop).
                    self.fail(exc)
                    return
                if not isinstance(target, Event) or target.sim is not sim:
                    gen.close()
                    error = SimError(f"process yielded a non-event (or an "
                                     f"event from another simulator): "
                                     f"{target!r}")
                    if self._detached:
                        raise error
                    self.fail(error)
                    return
                callbacks = target.callbacks
                if callbacks is None:  # processed: resume at once
                    self._waiting_on = target
                    self._resume(target)
                    return
                if not callbacks and sim._sole is self:
                    # run-ahead: the next step would pop ``target`` and
                    # resume this process alone, so pop it here
                    heap = sim._heap
                    if heap and heap[0][2] is target \
                            and heap[0][0] <= sim._horizon:
                        sim.now = heappop(heap)[0]
                        target.callbacks = None
                        target._processed = True
                        event = target
                        interrupt = None
                        continue
                self._waiting_on = target
                # Event.add_callback, inlined
                callbacks.append(self._resume_cb)
                return
        finally:
            sim.active_process = prev_active


class _Detached(Process):
    """A process started by :meth:`Simulator.spawn`."""

    __slots__ = ()

    _detached = True


class _Condition(Event):
    """Base for AllOf/AnyOf: triggers based on a set of child events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for evt in self._events:
            if evt.sim is not sim:
                raise SimError("condition mixes events from different simulators")
        self._pending = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for evt in self._events:
            evt.add_callback(self._check)

    def _values(self) -> dict:
        # ``processed`` (callbacks ran), not ``triggered``: a Timeout counts
        # as triggered from creation but only *fires* at its due time.
        return {evt: evt._value for evt in self._events if evt.processed
                and evt.exception is None}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered (fails on first error)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._values())


class AnyOf(_Condition):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self.succeed(self._values())
