"""Per-path failover/failback breaker: CLOSED -> OPEN -> PROBING FSM.

Each fast path (one per SDMA engine, plus the offload path) gets a
:class:`PathBreaker` fed typed submit outcomes by the driver chassis.
A sliding window of recent outcomes decides failover: when the number
of failures in the window crosses the policy threshold the breaker
opens and the dispatcher stops admitting traffic onto the path *at
dispatch time* — no per-request exception churn while the path is
DOWN.  A seeded probe timer then moves the breaker to PROBING after an
exponentially growing backoff; ``probe_successes`` consecutive probe
successes close it again (failback hysteresis), while a probe failure
re-opens it and doubles the backoff.

The FSM is explicit so PicoCheck can treat transition legality as an
oracle: the only legal edges are CLOSED->OPEN, OPEN->PROBING,
PROBING->CLOSED and PROBING->OPEN, and every transition is recorded
(and emitted as a trace instant when tracing is on).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List, Tuple

from ..config import PLANES
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..sim import Simulator
    from .policy import GuardPolicy

#: path admits traffic normally (healthy).
BREAKER_CLOSED = "closed"
#: path is DOWN; dispatcher routes around it, probe timer pending.
BREAKER_OPEN = "open"
#: backoff elapsed; one probe request at a time is admitted.
BREAKER_PROBING = "probing"

#: the legal FSM edges (used by :meth:`PathBreaker.transitions` consumers
#: such as the PicoCheck breaker oracle).
LEGAL_TRANSITIONS = frozenset({
    (BREAKER_CLOSED, BREAKER_OPEN),
    (BREAKER_OPEN, BREAKER_PROBING),
    (BREAKER_PROBING, BREAKER_CLOSED),
    (BREAKER_PROBING, BREAKER_OPEN),
})


class PathBreaker:
    """Sliding-window failure breaker for one fast path.

    ``label`` names the owning device (``node0``...) and ``path`` the
    guarded route (``engine0``, ``engine1``, ``offload``); both appear
    in counters and trace instants so flap reports can attribute
    degradation to a specific engine.
    """

    def __init__(self, sim: "Simulator", policy: "GuardPolicy",
                 label: str, path: str, tracer=None):
        self.sim = sim
        self.policy = policy
        self.label = label
        self.path = path
        self.tracer = tracer
        #: current FSM state (one of the ``BREAKER_*`` constants).
        self.state = BREAKER_CLOSED
        #: sliding window of recent outcomes (True = success).
        self.window: deque = deque(maxlen=policy.failure_window)
        #: consecutive probe successes while PROBING.
        self.probe_streak = 0
        #: True while a probe request is in flight (PROBING admits one
        #: probe at a time).
        self.probe_inflight = False
        #: current probe backoff (grows by ``probe_backoff_factor`` per
        #: failed probe, capped at ``probe_backoff_max``).
        self.backoff = policy.probe_backoff
        #: full transition history: ``(sim_time, old, new, reason)``.
        self.transitions: List[Tuple[float, str, str, str]] = []
        # generation counter: a stale probe timer (scheduled before a
        # newer transition) must not fire a spurious OPEN->PROBING edge.
        self._generation = 0

    # -- FSM core ---------------------------------------------------------

    def _transition(self, new_state: str, reason: str) -> None:
        """Move to ``new_state``, recording and tracing the edge."""
        old = self.state
        if old == new_state:
            return
        self.state = new_state
        self._generation += 1
        self.transitions.append((self.sim.now, old, new_state, reason))
        if PLANES.trace is not None:
            PLANES.trace.instant_span(
                f"guard.{old}->{new_state}",
                getattr(self, "trace_track", f"{self.label}/guard"),
                cat="guard",
                args={"path": self.path, "reason": reason,
                      "backoff_us": round(self.backoff * 1e6, 3)})

    def _failure_count(self) -> int:
        """Failures currently inside the sliding window."""
        return sum(1 for ok in self.window if not ok)

    def _count(self, name: str) -> None:
        """Bump ``name`` and its per-device/per-path variant."""
        if self.tracer is not None:
            self.tracer.count(name)
            self.tracer.count(f"{name}.{self.label}.{self.path}")

    # -- admission --------------------------------------------------------

    def admits(self) -> bool:
        """Whether the dispatcher may route a request onto this path.

        CLOSED always admits; OPEN never does; PROBING admits exactly
        one probe at a time (the caller marks it via
        :meth:`begin_probe`).
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_PROBING:
            return not self.probe_inflight
        return False

    def begin_probe(self) -> None:
        """Mark the single admitted PROBING request as in flight."""
        if self.state != BREAKER_PROBING:
            raise ReproError(
                f"{self.label}/{self.path}: begin_probe in {self.state}")
        self.probe_inflight = True

    # -- outcome feed -----------------------------------------------------

    def record_success(self) -> None:
        """Feed one successful submit outcome.

        While PROBING this advances the failback streak and closes the
        breaker at ``probe_successes`` consecutive wins (resetting the
        backoff).  A success while OPEN is legal — a request admitted
        before failover can complete late — and only refreshes the
        window.
        """
        self.window.append(True)
        if self.state == BREAKER_PROBING:
            self.probe_inflight = False
            self.probe_streak += 1
            if self.probe_streak >= self.policy.probe_successes:
                self.window.clear()
                self.backoff = self.policy.probe_backoff
                self._count("guard.failbacks")
                self._transition(
                    BREAKER_CLOSED,
                    f"{self.probe_streak} consecutive probe successes")

    def record_failure(self, reason: str = "") -> None:
        """Feed one failed submit outcome (typed error or halt event).

        CLOSED opens once failures in the window reach the threshold;
        a PROBING failure re-opens with a grown backoff.  Failures
        while already OPEN (late completions of pre-failover requests)
        just refresh the window.
        """
        self.window.append(False)
        if self.state == BREAKER_CLOSED:
            if self._failure_count() >= self.policy.failure_threshold:
                self._count("guard.failovers")
                self._fail_over(
                    f"{self._failure_count()} failures in window"
                    + (f": {reason}" if reason else ""))
        elif self.state == BREAKER_PROBING:
            self.probe_inflight = False
            self.probe_streak = 0
            self.backoff = min(self.backoff * self.policy.probe_backoff_factor,
                               self.policy.probe_backoff_max)
            self._fail_over("probe failed"
                            + (f": {reason}" if reason else ""))

    def _fail_over(self, reason: str) -> None:
        """Open the breaker and arm the probe timer."""
        self._transition(BREAKER_OPEN, reason)
        self._arm_probe_timer()

    def _arm_probe_timer(self) -> None:
        """Schedule the OPEN->PROBING edge after the current backoff.

        Uses a generation check rather than cancellation: if anything
        else transitions the breaker first, the timer fires as a no-op.
        """
        generation = self._generation
        timer = self.sim.timeout(self.backoff)

        def _probe_ready(_evt, gen=generation):
            if self._generation == gen and self.state == BREAKER_OPEN:
                self.probe_streak = 0
                self.probe_inflight = False
                self._transition(BREAKER_PROBING, "probe backoff elapsed")

        timer.add_callback(_probe_ready)
