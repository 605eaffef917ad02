"""Seeded, deterministic fault plans and the injector that draws them.

A :class:`FaultPlan` names every fault point the hardware and driver
models expose and assigns each a firing probability; a
:class:`FaultInjector` binds a plan to a dedicated RNG sub-factory so
that fault decisions are reproducible and — critically — *disjoint*
from every other random stream in the simulation.  Each fault point
draws from its own lazily-created stream, so a point with rate 0 never
draws a number: a zero-rate plan is bit-identical to no plan at all.

The fault points (and where they are injected):

=================  ====================================================
``fabric.drop``    :meth:`repro.hw.fabric.Fabric.transmit` discards the
                   packet instead of delivering it.
``fabric.corrupt`` the fabric flips bits in flight — modeled by
                   perturbing the packet checksum so the receiver's
                   integrity check fails.
``sdma.desc_error`` an SDMA engine hits a descriptor fetch error while
                   draining its ring and halts.
``sdma.engine_halt`` a whole-engine freeze with no descriptor cause
                   (the hfi1 errata class the driver's halt/restart
                   state machine exists for).
``irq.lost``       a completion interrupt is dropped; the driver's
                   completion watchdog recovers it much later.
``tid.transient``  a TID_UPDATE ioctl fails retryably (receive-array
                   race); PSM backs off and retries.
``media.read_error`` a replica's backing media fails a sector read; the
                   pxd driver retries the next in-service replica.
``media.write_error`` a replica's backing media rejects a sector write;
                   the pxd driver evicts the replica from service.
``media.torn_write`` a replica persists only a prefix of the write
                   before failing it (power-loss style tear); evicted
                   like a write error but leaves divergent media behind
                   for the resync machinery to detect.
``pxd.path_loss``  the whole path to a backing replica drops at submit
                   time (cable pull); the IO never reaches the media.
``blk.irq_lost``   a block-device completion interrupt is dropped; the
                   device-side watchdog redelivers it much later.
=================  ====================================================
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..sim.trace import Tracer
from ..units import USEC

#: fault-point name -> FaultPlan attribute holding its rate
FAULT_POINTS = {
    "fabric.drop": "fabric_drop",
    "fabric.corrupt": "fabric_corrupt",
    "sdma.desc_error": "sdma_desc_error",
    "sdma.engine_halt": "sdma_engine_halt",
    "irq.lost": "irq_lost",
    "tid.transient": "tid_transient",
    "media.read_error": "media_read_error",
    "media.write_error": "media_write_error",
    "media.torn_write": "media_torn_write",
    "pxd.path_loss": "pxd_path_loss",
    "blk.irq_lost": "blk_irq_lost",
}


@dataclass(frozen=True)
class ScheduledFault:
    """One deterministically *placed* fault: the named point fires at
    exactly its ``occurrence``-th opportunity (0-based) and nowhere else.

    This is the adversarial-placement currency of the PicoCheck
    explorer (:mod:`repro.analysis.check`): instead of Bernoulli draws
    the checker enumerates *where* a bounded budget of faults lands
    along each schedule.  Placement never touches an RNG stream, so a
    deterministic plan with zero scheduled faults is bit-identical to a
    fault-free run.
    """

    point: str
    occurrence: int

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ReproError(f"unknown fault point {self.point!r}; choose "
                             f"from {', '.join(sorted(FAULT_POINTS))}")
        if self.occurrence < 0:
            raise ReproError(f"fault occurrence index must be >= 0, got "
                             f"{self.occurrence}")

    def describe(self) -> str:
        """``point@occurrence`` (the schedule-script rendering)."""
        return f"{self.point}@{self.occurrence}"


@dataclass(frozen=True)
class FaultPlan:
    """Per-fault-point firing probabilities (all default to 0).

    Rates are per *opportunity*: a ``fabric.drop`` of 0.01 drops 1% of
    transmitted packets, a ``sdma.desc_error`` of 0.01 halts the engine
    on 1% of descriptor fetches, and so on.

    A plan can instead run in *deterministic placement mode*
    (:meth:`placed`): rates are ignored, no RNG stream is ever created,
    and exactly the :class:`ScheduledFault` placements fire — each when
    its fault point reaches the scheduled opportunity index.  The
    injector counts opportunities either way, so a deterministic plan
    with no placements doubles as the explorer's opportunity census.
    """

    fabric_drop: float = 0.0
    fabric_corrupt: float = 0.0
    sdma_desc_error: float = 0.0
    sdma_engine_halt: float = 0.0
    irq_lost: float = 0.0
    tid_transient: float = 0.0
    media_read_error: float = 0.0
    media_write_error: float = 0.0
    media_torn_write: float = 0.0
    pxd_path_loss: float = 0.0
    blk_irq_lost: float = 0.0
    #: how long the driver-side completion watchdog waits before
    #: recovering a lost completion interrupt.
    irq_recovery_timeout: float = 60 * USEC
    #: deterministic placement mode: ignore rates, fire exactly
    #: ``scheduled``, never draw randomness
    deterministic: bool = False
    scheduled: Tuple[ScheduledFault, ...] = field(default=())

    @classmethod
    def uniform(cls, rate: float, **overrides) -> "FaultPlan":
        """A plan firing every fault point at the same ``rate``."""
        values = {name: rate for name in FAULT_POINTS.values()}
        values.update(overrides)
        return cls(**values)

    @classmethod
    def placed(cls, *faults: ScheduledFault, **overrides) -> "FaultPlan":
        """A deterministic plan firing exactly ``faults`` (no RNG)."""
        return cls(deterministic=True, scheduled=tuple(faults), **overrides)

    def rate_of(self, point: str) -> float:
        """The firing probability of a named fault point."""
        try:
            attr = FAULT_POINTS[point]
        except KeyError:
            raise ReproError(f"unknown fault point {point!r}; choose from "
                             f"{', '.join(sorted(FAULT_POINTS))}")
        return getattr(self, attr)

    def describe(self) -> str:
        """One-line summary of the nonzero rates (for reports)."""
        if self.deterministic:
            if not self.scheduled:
                return "no faults (deterministic)"
            return "placed: " + ", ".join(f.describe() for f in self.scheduled)
        parts = [f"{p}={self.rate_of(p):g}"
                 for p in sorted(FAULT_POINTS) if self.rate_of(p) > 0]
        return ", ".join(parts) if parts else "no faults"


#: uniforms drawn per refill of a fault point's buffer
UNIFORM_BLOCK = 256


class _Uniforms:
    """One fault point's stream, served from blocks of draws.

    ``Generator.random(n)`` yields the same doubles as ``n`` scalar
    ``random()`` calls, so the point's sequence of uniforms does not
    depend on the block size or on where the refills fall.
    """

    __slots__ = ("stream", "vals", "pos")

    def __init__(self, stream):
        self.stream = stream
        #: drawn uniforms; ``vals[pos:]`` are not consumed yet
        self.vals: List[float] = []
        self.pos = 0

    def window(self, n: int) -> List[float]:
        """The buffer, refilled so that ``vals[pos:pos + n]`` exists."""
        vals, pos = self.vals, self.pos
        if len(vals) - pos < n:
            vals = self.vals = vals[pos:] + self.stream.random(
                max(UNIFORM_BLOCK, n)).tolist()
            self.pos = 0
        return vals


class FaultInjector:
    """Draws fault decisions for one machine, deterministically.

    ``rng_factory`` must be a machine-private sub-factory (see
    :meth:`repro.sim.rng.RngFactory.spawn`) so that installing the
    injector cannot perturb any other stream's sequence.  Streams are
    created lazily per fault point and :meth:`fires` short-circuits on
    zero rates before touching the RNG, which is what keeps zero-rate
    plans bit-identical to fault-free runs.

    Each assignment to :attr:`plan` (experiments swap plans mid-run)
    compiles it into a point -> rate table and binds :meth:`fires` and
    :meth:`quiet_run` to the placed or the random variant, as
    :class:`~repro.sim.engine.Simulator` binds ``step``.  A point's
    uniforms come from its own stream in blocks (:class:`_Uniforms`),
    in the same order as one scalar draw per opportunity.
    """

    def __init__(self, plan: FaultPlan, rng_factory,
                 tracer: Optional[Tracer] = None):
        self.rng_factory = rng_factory
        self.tracer = tracer
        self._streams: Dict[str, _Uniforms] = {}
        #: per-point opportunity counters, maintained only in
        #: deterministic placement mode (the explorer's census)
        self.occurrences: Dict[str, int] = {}
        self.plan = plan

    @property
    def plan(self) -> FaultPlan:
        """The active plan; assigning one recompiles the draw tables."""
        return self._plan

    @plan.setter
    def plan(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._rates = {point: getattr(plan, attr)
                       for point, attr in FAULT_POINTS.items()}
        #: placed mode: each point's scheduled occurrences, ascending
        self._placements: Dict[str, List[int]] = {}
        for f in sorted(plan.scheduled, key=lambda f: f.occurrence):
            self._placements.setdefault(f.point, []).append(f.occurrence)
        if plan.deterministic:
            self.fires, self.quiet_run = self._fires_placed, self._quiet_placed
        else:
            self.fires, self.quiet_run = self._fires_random, self._quiet_random

    def fires(self, point: str) -> bool:
        """True if the named fault point fires at this opportunity.

        Instances carry the variant bound for their plan; this
        class-level definition documents the contract."""
        if self._plan.deterministic:
            return self._fires_placed(point)
        return self._fires_random(point)

    def quiet_run(self, points: Tuple[str, ...], n: int) -> int:
        """Draw the leading opportunities, of at most ``n``, at which
        none of ``points`` fires; return how many there were (``k``).

        An opportunity is one draw per point, in ``points`` order, as
        one ``fires`` call per point would make it.  If ``k < n`` a point
        fires at opportunity ``k``, which is left undrawn: the caller
        makes it with one :meth:`fires` call per point, in order, so the
        point's counters, and whatever the caller does on a firing,
        keep their per-opportunity order.  With ``n == 0`` nothing is
        drawn.  Instances carry the variant bound for their plan."""
        if self._plan.deterministic:
            return self._quiet_placed(points, n)
        return self._quiet_random(points, n)

    def _rate(self, point: str) -> float:
        rate = self._rates.get(point)
        if rate is None:
            self._plan.rate_of(point)  # raises the typed unknown-point error
        return rate

    def _uniforms(self, point: str) -> _Uniforms:
        buf = self._streams.get(point)
        if buf is None:
            buf = self._streams[point] = _Uniforms(
                self.rng_factory.stream("fault", point))
        return buf

    def _fires_random(self, point: str) -> bool:
        rate = self._rate(point)
        if rate <= 0.0:
            return False
        buf = self._uniforms(point)
        vals, pos = buf.window(1), buf.pos
        buf.pos = pos + 1
        if vals[pos] >= rate:
            return False
        if self.tracer is not None:
            self.tracer.count(f"faults.{point}")
        return True

    def _fires_placed(self, point: str) -> bool:
        # exact placement mode: count the opportunity, fire on an exact
        # (point, occurrence) match, never touch the RNG
        self._rate(point)
        idx = self.occurrences.get(point, 0)
        self.occurrences[point] = idx + 1
        if idx not in self._placements.get(point, ()):
            return False
        if self.tracer is not None:
            self.tracer.count(f"faults.{point}")
        return True

    def _quiet_random(self, points: Tuple[str, ...], n: int) -> int:
        k = n
        live = []
        for point in points:
            rate = self._rate(point)
            if rate <= 0.0 or k == 0:
                continue
            buf = self._uniforms(point)
            vals, pos = buf.window(k), buf.pos
            for i in range(pos, pos + k):
                if vals[i] < rate:
                    k = i - pos
                    break
            live.append(buf)
        for buf in live:
            buf.pos += k
        return k

    def _quiet_placed(self, points: Tuple[str, ...], n: int) -> int:
        k = n
        occurrences = self.occurrences
        for point in points:
            self._rate(point)
            idx = occurrences.get(point, 0)
            placed = self._placements.get(point, ())
            at = bisect_left(placed, idx)
            if at < len(placed):
                k = min(k, placed[at] - idx)
        if k:
            for point in points:
                occurrences[point] = occurrences.get(point, 0) + k
        return k
