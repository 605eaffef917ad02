"""Generator-based simulation processes and event combinators.

A process body is a Python generator that ``yield``s :class:`Event`s; the
process suspends until the yielded event triggers, then resumes with the
event's value (or has the event's exception thrown into it).  A process is
itself an :class:`Event` that triggers with the generator's return value, so
processes compose (``yield sim.process(sub())``).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from .engine import Event, SimError, Simulator, Timeout


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """An event that completes when its generator returns."""

    __slots__ = ("_gen", "_waiting_on", "_resume_cb")

    def __init__(self, sim: Simulator, gen: Generator):
        if not hasattr(gen, "send"):
            raise SimError(f"process body must be a generator, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
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
        """
        if self.triggered:
            raise SimError("cannot interrupt a finished process")
        waited = self._waiting_on
        interrupt_evt = Event(self.sim)
        interrupt_evt.add_callback(
            lambda e: self._deliver(waited, Interrupt(cause)))
        interrupt_evt.succeed()

    # -- internal --------------------------------------------------------

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
        try:
            if interrupt is not None:
                target = self._gen.throw(interrupt)
            elif event._exc is not None:
                target = self._gen.throw(event._exc)
            else:
                target = self._gen.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Fail the process event; the exception propagates into any
            # process waiting on this one (failure-injection tests rely on
            # this instead of crashing the event loop).
            self.fail(exc)
            return
        finally:
            sim.active_process = prev_active
        if not isinstance(target, Event) or target.sim is not sim:
            self._gen.close()
            self.fail(SimError(f"process yielded a non-event (or an event "
                               f"from another simulator): {target!r}"))
            return
        self._waiting_on = target
        # Event.add_callback, inlined
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)


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
