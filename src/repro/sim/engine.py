"""Event queue and simulator clock.

Design notes
------------
* Events carry a list of callbacks; triggering an event schedules it on the
  simulator queue, and callbacks run when the queue reaches it.  This is the
  SimPy model and makes process wake-up ordering deterministic.
* The heap is ordered by ``(time, seq)`` where ``seq`` is a monotonically
  increasing tie-breaker, so same-time events fire in schedule order.
* The engine never consults wall-clock time or global randomness; a run is a
  pure function of its inputs (guide: "make it work reliably" before fast).

Tie-break policy (pinned)
-------------------------
Same-timestamp events fire in **stable FIFO order by insertion** — the
``seq`` counter is assigned in :meth:`Simulator._post` call order and the
heap never reorders equal-``(time, seq)`` keys, so two events scheduled
for the same instant are processed in exactly the order they were
triggered.  This is a *contract*, not an accident of ``heapq``: the
bounded model checker (:mod:`repro.analysis.check`) enumerates the
same-time ready set as a *choice point* and must know what choice 0 (the
default, uncontrolled schedule) means.  A regression test pins it.

When a controlled scheduler is installed (``sim.scheduler``, see
:class:`repro.analysis.check.ControlledScheduler`), every same-time
ready set with more than one event becomes an explicit choice point:
the scheduler picks which event fires next and the rest are re-queued
with their original ``(time, seq)`` keys, preserving FIFO order among
the events it did not pick.  With no scheduler installed (the default),
``step()`` takes the single cheap pop path and behaves bit-identically
to a build without the hook.

Precomputed no-op dispatch (hot loop)
-------------------------------------
``step()`` and ``timeout()`` are *rebound per instance*: installing a
controlled scheduler or a wait monitor swaps the instance's bound
method for the instrumented variant, and uninstalling swaps the fast
variant back.  The disabled configuration therefore pays **zero**
per-event branches for the monitor hooks — there is no ``if scheduler
is not None`` test on the fast path at all; the dispatch decision was
made once, at install time.  cProfile on a full fig4 regeneration
(~51k events) attributes ~two thirds of the wall clock to
``step``/``_deliver``/``Timeout.__init__``, which is why these three
and the classes they allocate (:class:`Event`, :class:`Timeout`,
:class:`~repro.sim.process.Process` — all ``__slots__``) are the
flattening targets.

The per-event hot spots post inline: ``Timeout.__init__`` and
``Event.succeed`` set their slots directly and ``heappush`` straight
onto ``sim._heap`` with the same ``(time, next(sim._seq))`` key that
:meth:`Simulator._post` builds.  A ``Process`` binds ``_resume`` once
and appends that callback itself, both to the zero-delay ``Timeout``
that starts it and in ``_deliver``, without going through
``add_callback``.  ``_step_fast`` runs the popped event's callbacks
itself instead of calling ``Event._run_callbacks``, and
``Resource.request`` does its occupancy accounting inline.  The key
is the whole ordering contract, so inlining it cannot reorder events.

Exact fast paths (same schedule, fewer round-trips)
---------------------------------------------------
Three shortcuts skip heap round-trips whose outcome is already known.
Each applies only when it cannot change what the FIFO schedule does,
and none applies while a controlled scheduler is installed:

* *run-ahead*: inside :meth:`Simulator.run`, a process resumed as the
  sole callback of the stepped event is the last thing that step does.
  If the event it yields next is ``heap[0]``, has no callbacks yet and
  lies within the run's horizon, the next step would pop exactly that
  event and resume exactly this process, so ``_deliver`` pops it in
  place and continues;
* *inline joins*: ``yield from sim.call(gen)`` runs the child in the
  caller's frame.  Its start and its end are each skipped when the
  event ``yield sim.process(gen)`` would have posted for them would be
  alone at its instant and handled next; otherwise exactly that one
  zero-delay event is posted;
* *detached spawns*: :meth:`Simulator.spawn` starts a process nobody
  joins, so its end posts no completion event.  Its failure cannot
  reach a waiter either: the exception propagates out of
  :meth:`run`/:meth:`step` unchanged.

What the boundaries count:

* one step may consume several events of one process (run-ahead pops
  them inside the process's ``_deliver``), so calls to
  ``Simulator._step_fast`` count steps and calls to ``Process._deliver``
  count resumptions, not events;
* every wait still constructs a ``Timeout``, so ``Timeout.__init__``
  counts timed waits plus the child starts that were posted;
* :meth:`Simulator.run` always goes through ``self.step()`` (never a
  private loop around ``heappop``), and a ``step()`` called outside
  ``run()`` processes exactly one event;
* a controlled scheduler still sees every event: with one installed,
  ``call`` creates the child process and ``spawn`` posts its completion
  as ``sim.process`` would, and nothing runs ahead.

``bench/layers.py`` counts calls to ``Simulator._step_fast``,
``Process._deliver`` and ``Timeout.__init__`` under cProfile, so those
three names stay.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional

_INF = float("inf")


class SimError(Exception):
    """Raised for misuse of the simulation engine."""


class Event:
    """A one-shot occurrence with a value (or an exception) and callbacks.

    Lifecycle: *pending* -> ``succeed``/``fail`` (-> *triggered*, scheduled)
    -> callbacks run (-> *processed*).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimError("event not yet triggered")
        return self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError("event not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        heappush(sim._heap, (sim.now, next(sim._seq), self))  # inline _post
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception (propagates into waiters)."""
        if self._triggered:
            raise SimError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.sim._post(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this lets late waiters join completed operations.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for fn in callbacks:  # type: ignore[union-attr]
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        # Event.__init__ and _post, inlined: one Timeout per wait
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        heappush(sim._heap, (sim.now + delay, next(sim._seq), self))


class Simulator:
    """The event loop: a clock plus a (time, seq)-ordered event heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq = count()
        self._wait_monitor = None
        self._scheduler = None
        #: the :class:`~repro.sim.process.Process` whose generator is
        #: currently executing, or ``None`` between steps / in bare event
        #: callbacks.  The tracer keys its span stacks on this so spans
        #: opened by concurrent processes (progress workers, watchdogs,
        #: IRQ handlers) never interleave on one stack.
        self.active_process = None
        #: the run-ahead right (see "Exact fast paths"): ``_step_fast``
        #: stores its event here when that event has exactly one
        #: callback, and the process that callback resumes takes it over
        self._sole: Any = None
        #: the current ``run()``'s horizon; ``-inf`` outside ``run()``,
        #: so a bare ``step()`` never consumes more than one event
        self._horizon = -_INF
        # Precomputed dispatch: the hot entry points start on their fast
        # variants; installing a monitor rebinds the instance attribute
        # (shadowing the class method) so the disabled path never tests
        # for the hook at all.
        self.step = self._step_fast
        self.timeout = self._timeout_fast

    # -- opt-in monitors (precomputed dispatch) ---------------------------

    @property
    def wait_monitor(self):
        """Opt-in wait observer (the lockdep validator): notified of
        every positive-delay timeout so held-across-wait hazards are
        caught.  Assigning one rebinds :meth:`timeout` to the observed
        variant; assigning ``None`` restores the fast path."""
        return self._wait_monitor

    @wait_monitor.setter
    def wait_monitor(self, monitor) -> None:
        self._wait_monitor = monitor
        self.timeout = (self._timeout_fast if monitor is None
                        else self._timeout_observed)

    @property
    def scheduler(self):
        """Opt-in controlled scheduler (the PicoCheck explorer): when
        installed, same-time ready sets become choice points and every
        step is bracketed for footprint recording.  Assigning one
        rebinds :meth:`step` to the controlled variant; assigning
        ``None`` (the default) restores the single cheap pop path."""
        return self._scheduler

    @scheduler.setter
    def scheduler(self, scheduler) -> None:
        self._scheduler = scheduler
        self._sole = None
        self.step = (self._step_fast if scheduler is None
                     else self._step_controlled)

    # -- scheduling ------------------------------------------------------

    def _post(self, event: Event, delay: float = 0.0) -> None:
        heappush(self._heap, (self.now + delay, next(self._seq), event))

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now.

        Instances carry a rebound fast/observed variant (see
        :attr:`wait_monitor`); this class-level definition documents the
        contract and covers any instance built without ``__init__``.
        """
        return self._timeout_fast(delay, value)

    def _timeout_fast(self, delay: float, value: Any = None) -> Timeout:
        # no wait monitor installed: straight to the event allocation
        return Timeout(self, delay, value)

    def _timeout_observed(self, delay: float, value: Any = None) -> Timeout:
        wait_monitor = self._wait_monitor
        if wait_monitor is not None and delay > 0:
            wait_monitor.on_timed_wait(delay)
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Run a generator as a simulation process."""
        return Process(self, generator)

    def spawn(self, generator) -> None:
        """Run a generator as a *detached* process: one whose handle
        nobody keeps, joins or interrupts.

        It starts like :meth:`process`, but its end posts no completion
        event (unless a controlled scheduler is installed, which sees
        every event ``process`` would post).  An exception it raises
        has no waiter to go to, so it propagates out of :meth:`run` /
        :meth:`step` unchanged instead of vanishing.
        """
        _Detached(self, generator)

    def call(self, generator):
        """Generator: run ``generator`` as a joined child and return its
        value (or raise its exception) — ``result = yield from
        sim.call(gen)`` in place of ``result = yield sim.process(gen)``.

        The child runs in the caller's frame, so the caller's waits are
        the child's waits.  Its start and its end each post the
        zero-delay event ``sim.process`` would have posted, unless that
        event would be alone at its instant and handled right after the
        current resumption, when it is skipped (see the module
        docstring).  A caller inside ``call`` cannot be interrupted:
        the interrupt would land in the child's frame, not at the join.
        """
        if not hasattr(generator, "send"):
            raise SimError(f"process body must be a generator, "
                           f"got {generator!r}")
        caller = self.active_process
        if caller is not None:
            caller._calls += 1  # Process.interrupt refuses meanwhile
        try:
            if self._scheduler is not None:
                # controlled mode: today's path, every event visible
                return (yield Process(self, generator))
            if not self._alone():
                yield Timeout(self, 0.0)  # the child's start event
            try:
                value = yield from generator
            except GeneratorExit:
                raise
            except BaseException as exc:
                if not self._alone():
                    # the child's end event, which throws ``exc`` here
                    yield Event(self).fail(exc)
                raise
            if not self._alone():
                yield Event(self).succeed(value)  # the child's end event
            return value
        finally:
            if caller is not None:
                caller._calls -= 1

    def _alone(self) -> bool:
        """Would a zero-delay event posted now be the next one handled?

        True when the running process holds the run-ahead right (its
        resumption ends the step, inside ``run()``) and no other event
        is due at this instant.
        """
        proc = self.active_process
        if proc is None or self._sole is not proc:
            return False
        heap = self._heap
        return not heap or heap[0][0] > self.now

    # -- running ---------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the next event.  Called by :meth:`run`, a step may
        go on through further events of the process it resumed
        (run-ahead, see the module docstring); called directly, it
        processes exactly one event.

        Same-time events fire in stable FIFO insertion order (see the
        module docstring's tie-break policy).  An installed controlled
        scheduler overrides the pick within a same-time ready set; it
        cannot reorder across distinct timestamps.

        Instances carry a rebound fast/controlled variant (see
        :attr:`scheduler`); this class-level definition documents the
        contract and covers any instance built without ``__init__``.
        """
        return self._step_fast()

    def _step_fast(self) -> None:
        # the uncontrolled hot path: one pop, one callback fan-out
        # (Event._run_callbacks, inlined)
        heap = self._heap
        if not heap:
            raise SimError("step() on an empty event queue")
        when, _, event = heappop(heap)
        self.now = when
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if len(callbacks) == 1:
            # the sole callback is the last act of this step: a process
            # it resumes may run ahead (Process._deliver)
            self._sole = event
            callbacks[0](event)
        else:
            self._sole = None
            for fn in callbacks:
                fn(event)

    def _step_controlled(self) -> None:
        # Controlled mode (PicoCheck): surface the same-time ready set
        # as a choice point and bracket the step so the scheduler can
        # record its footprint.
        heap = self._heap
        if not heap:
            raise SimError("step() on an empty event queue")
        scheduler = self._scheduler
        if scheduler is not None:
            when = heap[0][0]
            ready = [heappop(heap)]
            while heap and heap[0][0] == when:
                ready.append(heappop(heap))
            if len(ready) > 1:
                pick = scheduler.choose_ready(when, ready)
                if not 0 <= pick < len(ready):
                    raise SimError(f"scheduler chose {pick} out of "
                                   f"{len(ready)} ready events")
                entry = ready.pop(pick)
                # the unchosen events keep their original (time, seq)
                # keys, so FIFO order among them is preserved
                for other in ready:
                    heappush(heap, other)
            else:
                entry = ready[0]
            self.now = when
            scheduler.on_step_begin(when, entry[1], entry[2])
            try:
                entry[2]._run_callbacks()
            finally:
                scheduler.on_step_end()
            return
        self._step_fast()  # pragma: no cover - rebinding keeps these in sync

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queue drains, ``until`` seconds pass, or the
        ``until`` event triggers.  Returns the ``until`` event's value when
        given an event.
        """
        try:
            if until is None:
                self._horizon = _INF
                while self._heap:
                    self.step()
                return None
            if isinstance(until, Event):
                # ``until`` always has a callback (this one), so nothing
                # runs ahead through it: the run stops at its step
                done = [False]
                until.add_callback(lambda e: done.__setitem__(0, True))
                self._horizon = _INF
                while not done[0]:
                    if not self._heap:
                        raise SimError("run(until=event): queue drained "
                                       "before the event triggered "
                                       "(deadlock?)")
                    self.step()
                if until._exc is not None:
                    raise until._exc
                return until._value
            horizon = float(until)
            if horizon < self.now:
                raise SimError(f"run until {horizon} is in the past "
                               f"(now={self.now})")
            self._horizon = horizon
            while self._heap and self._heap[0][0] <= horizon:
                self.step()
            self.now = horizon
            return None
        finally:
            self._horizon = -_INF


# Process subclasses Event, so its module imports this one; importing it
# last (when everything above exists) lets ``process()`` use it directly.
from .process import Process, _Detached  # noqa: E402
