"""Generator-based simulation processes and event combinators.

A process body is a Python generator that ``yield``s :class:`Event`s; the
process suspends until the yielded event triggers, then resumes with the
event's value (or has the event's exception thrown into it).  A process is
itself an :class:`Event` that triggers with the generator's return value, so
processes compose (``yield sim.process(sub())``, or ``yield from
sim.call(sub())``, which runs the child in the caller's frame).

Finished work frees itself: a process refers to itself only while its
generator can resume, so it is freed by reference counting at its last
step.  A waiting process lives as long as the event it waits on.
"""

from __future__ import annotations

from heapq import heappop
from typing import Generator, Iterable

from .engine import Event, SimError, Simulator, Timeout


class Process(Event):
    """An event that completes when its generator returns."""

    __slots__ = ("_gen", "_deliver_cb")

    #: a detached process (:meth:`Simulator.spawn`) has no waiter: it
    #: ends without posting, and its failure propagates out of the step
    _detached = False

    def __init__(self, sim: Simulator, gen: Generator):
        if not hasattr(gen, "send"):
            raise SimError(f"process body must be a generator, got {gen!r}")
        # Event.__init__, inlined: one process per spawned delivery
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._gen = gen
        #: the bound ``_deliver``, made once: every wait appends it.  It
        #: refers back to this process, so every end of the generator
        #: drops it
        self._deliver_cb = deliver = self._deliver
        # the start wait: a zero-delay Timeout (which no wait monitor
        # observes), with the callback appended as add_callback would
        Timeout(sim, 0.0).callbacks.append(deliver)

    # -- internal --------------------------------------------------------

    def _deliver(self, event: Event) -> None:
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
                    if event._exc is not None:
                        target = gen.throw(event._exc)
                    else:
                        target = gen.send(event._value)
                except StopIteration as stop:
                    self._deliver_cb = None  # see __init__
                    if self._detached and scheduler is None:
                        # nobody waits on a detached process: done,
                        # without a completion event
                        self._triggered = True
                        self._value = stop.value
                    else:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self._deliver_cb = None
                    if self._detached:
                        raise  # no waiter to hand the failure to
                    # Fail the process event; the exception propagates
                    # into any process waiting on this one
                    # (failure-injection tests rely on this instead of
                    # crashing the event loop).
                    self.fail(exc)
                    return
                if not isinstance(target, Event) or target.sim is not sim:
                    self._deliver_cb = None
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
                    event = target
                    continue
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
                        continue
                # Event.add_callback, inlined
                callbacks.append(self._deliver_cb)
                return
        finally:
            sim.active_process = prev_active


class _Detached(Process):
    """A process started by :meth:`Simulator.spawn`."""

    __slots__ = ()

    _detached = True


class AllOf(Event):
    """Triggers when every child event has triggered (fails on first error)."""

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

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            # ``processed`` (callbacks ran), not ``triggered``: a Timeout
            # counts as triggered from creation but only *fires* at its
            # due time
            self.succeed({evt: evt._value for evt in self._events
                          if evt.processed and evt.exception is None})
