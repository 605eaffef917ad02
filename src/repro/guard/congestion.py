"""Congestion watermarks: bounded outstanding descriptors per engine.

A :class:`CongestionGate` sits in front of one SDMA engine's ring and
bounds the number of *outstanding* descriptors (submitted but not yet
drained by the engine) at the policy ``qdepth``.  Crossing
``nr_congestion_on`` raises the congested flag: subsequent submitters
park on a FIFO wait list instead of failing, surfacing backpressure up
through the PSM send windows.  Draining back below
``nr_congestion_off`` clears the flag and wakes the parked submitters
in arrival order — the classic high/low watermark hysteresis of the
px-fuse fastpath (``pxd_check_q_congested``/``nr_congestion_off``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator

from ..config import PLANES
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..sim import Simulator
    from .policy import GuardPolicy


class CongestionGate:
    """High/low-watermark admission gate for one SDMA engine."""

    def __init__(self, sim: "Simulator", policy: "GuardPolicy",
                 label: str, path: str, tracer=None, manager=None):
        self.sim = sim
        self.policy = policy
        self.label = label
        self.path = path
        self.tracer = tracer
        #: owning :class:`~repro.guard.manager.GuardManager`, notified on
        #: every release so a pending suspend can observe the drain.
        self.manager = manager
        #: descriptors submitted to the engine and not yet drained.
        self.outstanding = 0
        #: True between the on- and off-watermark crossings.
        self.congested = False
        #: FIFO of ``(event, n_slots)`` for parked submitters.
        self._waiters: deque = deque()

    def _count(self, name: str) -> None:
        """Bump ``name`` and its per-device/per-path variant."""
        if self.tracer is not None:
            self.tracer.count(name)
            self.tracer.count(f"{name}.{self.label}.{self.path}")

    def _would_admit(self, n: int) -> bool:
        """Whether ``n`` more slots fit right now (ignoring the queue).

        A request group larger than ``qdepth`` itself (a multi-hundred
        descriptor rendezvous window) is admitted *alone* once the gate
        is idle — the bound caps concurrency, it must never wedge a
        legal request forever.
        """
        return (not self.congested
                and (self.outstanding + n <= self.policy.qdepth
                     or self.outstanding == 0))

    def acquire_slots(self, n: int) -> Iterator:
        """Reserve ``n`` descriptor slots, parking while congested.

        A generator the submitter ``yield from``s (same blocking shape
        as the engine's ring-space wait, so lock-order analysis sees an
        ordinary event wait).  Parked submitters are admitted strictly
        in arrival order: a later acquire never overtakes an earlier
        one even if it would fit.  A parked submitter's slots are
        accounted by the releaser (:meth:`release_slots`) before its
        wake event fires, so the wait is one-shot.
        """
        if self._waiters or not self._would_admit(n):
            waiter = Event(self.sim)
            self._waiters.append((waiter, n))
            self._count("guard.congestion_waits")
            if PLANES.trace is not None:
                PLANES.trace.instant_span(
                    "guard.congestion_wait",
                    getattr(self, "trace_track", f"{self.label}/guard"),
                    cat="guard",
                    args={"path": self.path, "slots": n,
                          "outstanding": self.outstanding})
            yield waiter
        else:
            self._admit(n)

    def _admit(self, n: int) -> None:
        """Account ``n`` granted slots, raising the flag at the high mark."""
        self.outstanding += n
        if (not self.congested
                and self.outstanding >= self.policy.nr_congestion_on):
            self.congested = True
            self._count("guard.congestion_on")

    def release_slots(self, n: int) -> None:
        """Return ``n`` drained slots, clearing the flag at the low mark.

        Called from the engine's drain loop after a burst completes.
        Releasing more than is outstanding is recorded in the manager's
        ``violations`` before the count clamps at zero.  Wakes parked
        submitters in FIFO order while their reservations fit, then
        notifies the manager so a pending :meth:`suspend
        <repro.guard.manager.GuardManager.suspend>` can observe the
        device quiescing.
        """
        self.outstanding -= n
        if self.outstanding < 0:
            if self.manager is not None:
                self.manager.violations.append(
                    f"{self.label}/{self.path}: outstanding went negative")
            self.outstanding = 0
        if (self.congested
                and self.outstanding <= self.policy.nr_congestion_off):
            self.congested = False
            self._count("guard.congestion_off")
        while self._waiters:
            waiter, slots = self._waiters[0]
            if not self._would_admit(slots):
                break
            self._waiters.popleft()
            self._admit(slots)
            if not waiter.triggered:
                waiter.succeed()
        if self.manager is not None:
            self.manager.note_drain()
