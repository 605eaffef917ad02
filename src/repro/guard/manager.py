"""Per-device guard manager: breakers, gates, suspend/resume, oracles.

One :class:`GuardManager` per device owns the per-path breakers (one
per SDMA engine or pxd replica, plus the offload path), the per-path
congestion gates, and the suspend/resume queued-IO list.  The driver
chassis consults it on every fast-path submit:

* the McKernel dispatcher asks :meth:`admits` *before* attempting the
  fast path, so a DOWN path routes to offload at dispatch time;
* the HFI PicoDriver asks :meth:`pick_healthy_engine` instead of the
  device's bare round-robin, and feeds outcomes back through
  :meth:`record_success`/:meth:`record_failure`;
* both HFI driver entry points park on :meth:`park_if_suspended` so a
  :meth:`suspend` can quiesce the device under live traffic.

The manager also doubles as PicoCheck's oracle surface:
:attr:`violations` receives each breach when it happens, an illegal
breaker edge from the breaker and an over-release from the gate.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Iterator, List

from ..config import PLANES
from ..errors import FastPathUnavailable, ReproError
from ..sim import Event
from .breaker import BREAKER_PROBING, PathBreaker
from .congestion import CongestionGate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..hw.hfi import HFIDevice, SdmaEngine
    from ..sim import Simulator
    from .policy import GuardPolicy

#: breaker path name for the offloaded slow path (record-only: the
#: offload path is the route of last resort, so its breaker never
#: blocks dispatch, it only attributes failures in reports).
OFFLOAD_PATH = "offload"
#: the one syscall whose fast path depends on per-path health (the
#: SDMA engines' and the pxd replicas' data path alike); the
#: dispatcher's :meth:`GuardManager.admits` pre-check gates only it.
DATA_SYSCALL = "writev"


class GuardManager:
    """Health manager for one device's fast paths."""

    def __init__(self, sim: "Simulator", policy: "GuardPolicy",
                 n_engines: int, tracer=None, label: str = "node0",
                 path_prefix: str = "engine"):
        self.sim = sim
        self.policy = policy
        self.tracer = tracer
        self.label = label
        #: fast-path naming scheme: ``engine<i>`` for the HFI's SDMA
        #: engines, ``replica<i>`` for the pxd block device's backing
        #: replicas — one breaker per path either way.
        self.path_prefix = path_prefix
        #: runtime invariant breaches, appended as they happen by the
        #: breakers (an illegal edge) and the gates (an over-release);
        #: a PicoCheck oracle input.
        self.violations: List[str] = []
        #: per-path breakers keyed ``<prefix>0``.. plus ``offload``.
        self.breakers: Dict[str, PathBreaker] = {}
        for path in [*map(self.path_name, range(n_engines)), OFFLOAD_PATH]:
            self.breakers[path] = PathBreaker(sim, policy, label, path,
                                              tracer=tracer,
                                              violations=self.violations)
        #: per-path congestion gates (index-aligned with the device's
        #: engine/replica list).
        self.gates: List[CongestionGate] = [
            CongestionGate(sim, policy, label, self.path_name(i),
                           tracer=tracer, manager=self)
            for i in range(n_engines)]
        #: True between :meth:`suspend` and :meth:`resume`.
        self.suspended = False
        #: FIFO of park events for requests queued while suspended.
        self._parked: deque = deque()
        #: drain waiter armed by a :meth:`suspend` in progress.
        self._drain_waiter = None
        self._rr = 0
        self._trace_track = None

    # -- tracing ----------------------------------------------------------

    @property
    def trace_track(self):
        """Perfetto track name for guard instants (set by
        :func:`repro.obs.spans.attach_machine`); stamping it propagates
        to every breaker and gate."""
        return self._trace_track

    @trace_track.setter
    def trace_track(self, track) -> None:
        self._trace_track = track
        for breaker in self.breakers.values():
            breaker.trace_track = track
        for gate in self.gates:
            gate.trace_track = track

    def _count(self, name: str) -> None:
        """Bump ``name`` and its per-device variant."""
        if self.tracer is not None:
            self.tracer.count(name)
            self.tracer.count(f"{name}.{self.label}")

    # -- path naming ------------------------------------------------------

    def path_name(self, index: int) -> str:
        """Breaker path name for fast path ``index`` under this
        manager's naming scheme (``engine3``, ``replica1``, ...)."""
        return f"{self.path_prefix}{index}"

    # -- dispatch-time admission -----------------------------------------

    def admits(self, syscall: str) -> bool:
        """Whether the fast path may serve ``syscall`` right now.

        The dispatcher calls this before attempting the fast path, so
        a degraded path is routed around without exception churn.
        Only :data:`DATA_SYSCALL` depends on per-path health; every
        other fast call stays admitted.
        """
        if syscall != DATA_SYSCALL:
            return True
        return any(self.breakers[self.path_name(i)].admits()
                   for i in range(len(self.gates)))

    def pick_healthy_engine(self, hfi: "HFIDevice") -> "SdmaEngine":
        """Round-robin over engines whose breaker admits traffic.

        Replaces the device's bare :meth:`~repro.hw.hfi.HFIDevice.
        pick_engine` while the guard is installed.  A PROBING breaker
        admits exactly one probe, marked in flight here.  Raises
        :class:`~repro.errors.FastPathUnavailable` when every engine is
        DOWN (the dispatcher then falls back to offload).
        """
        n = len(hfi.engines)
        for off in range(n):
            idx = (self._rr + off) % n
            breaker = self.breakers[self.path_name(idx)]
            if breaker.admits():
                self._rr = (idx + 1) % n
                if breaker.state == BREAKER_PROBING:
                    breaker.begin_probe()
                    self._count("guard.probes")
                return hfi.engines[idx]
        raise FastPathUnavailable(
            f"{self.label}: no healthy SDMA engine (all breakers open)")

    # -- outcome feed -----------------------------------------------------

    def record_success(self, path: str) -> None:
        """Feed a successful submit outcome to ``path``'s breaker."""
        self.breakers[path].record_success()

    def record_failure(self, path: str, reason: str = "") -> None:
        """Feed a failed submit outcome to ``path``'s breaker."""
        self.breakers[path].record_failure(reason)

    # -- suspend/resume ---------------------------------------------------

    def park_if_suspended(self) -> Iterator:
        """Generator: park the caller on the queued-IO list while the
        device is suspended.

        Driver entry points ``yield from`` this before touching the
        device; with the device live it is a no-op.  Parked requests
        are replayed in arrival order by :meth:`resume` (the
        simulator's same-timestamp FIFO tie-break preserves order).
        """
        while self.suspended:
            evt = Event(self.sim)
            self._parked.append(evt)
            self._count("guard.parked")
            yield evt

    def suspend(self) -> Iterator:
        """Generator: quiesce the device under live traffic.

        Sets the suspended flag (new requests park), then waits for
        every congestion gate to drain to zero outstanding descriptors
        — in-flight groups complete, nothing new is admitted.  Returns
        once the device is quiescent.
        """
        if self.suspended:
            raise ReproError(f"{self.label}: suspend while suspended")
        self.suspended = True
        self._count("guard.suspends")
        if PLANES.trace is not None:
            PLANES.trace.instant_span(
                "guard.suspend", self._trace_track or f"{self.label}/guard",
                cat="guard", args={"outstanding": self._outstanding_total()})
        while self._outstanding_total() > 0:
            waiter = Event(self.sim)
            self._drain_waiter = waiter
            yield waiter
        self._drain_waiter = None

    def resume(self) -> None:
        """Lift a suspend and replay parked requests in arrival order."""
        if not self.suspended:
            raise ReproError(f"{self.label}: resume while not suspended")
        self.suspended = False
        self._count("guard.resumes")
        if PLANES.trace is not None:
            PLANES.trace.instant_span(
                "guard.resume", self._trace_track or f"{self.label}/guard",
                cat="guard", args={"replayed": len(self._parked)})
        while self._parked:
            evt = self._parked.popleft()
            if not evt.triggered:
                evt.succeed()

    def note_drain(self) -> None:
        """Gate callback after every release: wake a pending suspend
        once the device has fully drained."""
        if self._drain_waiter is not None and self._outstanding_total() == 0:
            waiter, self._drain_waiter = self._drain_waiter, None
            if not waiter.triggered:
                waiter.succeed()

    def _outstanding_total(self) -> int:
        """Outstanding descriptors summed across all gates."""
        return sum(gate.outstanding for gate in self.gates)
