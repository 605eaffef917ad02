"""``python -m repro chaos --storage`` — the PicoBlock fault sweep.

For every OS configuration, drive a single-rank write/read workload
against the pxd replicated block device under increasing uniform
storage-fault rates and check the end-to-end contract of the recovery
machinery: **every acknowledged write is readable byte-intact from
every in-service replica** (read-your-writes through the device, plus
a direct end-of-cell media audit), or the caller saw a typed
:class:`~repro.errors.MediaError` — nothing is silently lost or
silently torn.

Alongside the sweep, a per-config **recovery drill** runs
baseline / storm / recovery phases over one live machine (the shared
injector's plan is swapped mid-run): the storm must evict at least one
replica, the recovery phase must re-admit at least one (probe +
resync), and recovery-phase goodput must return to
``RECOVERY_BAR x`` the no-fault baseline.  The sweep cell, the drill
and PicoCheck's ``pxd-fallback`` scenario all drive one
:class:`WriteTrain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import ALL_CONFIGS, OSConfig, planes
from ..errors import MediaError
from ..faults import FaultPlan
from ..linux.pxd import ioctls as ioc
from ..params import default_params
from ..sim import Event
from ..units import USEC
from .chaos import (RECOVERY_BAR, ContractTrain, Phase, PhasedResult,
                    phase_starts)
from .common import build_machine

#: uniform per-opportunity storage fault rates swept by the full run
DEFAULT_RATES = (0.0, 0.005, 0.01, 0.02)

#: trimmed sweep for CI (--smoke)
SMOKE_RATES = (0.0, 0.02)

#: sectors per write (disjoint runs, so the media audit is exact)
WRITE_NSECTORS = 2
#: gap between consecutive runs keeps them disjoint
WRITE_STRIDE = 4
#: per-operation think time: real callers do not spin typed failures
#: back-to-back, and the gap gives in-flight probes a chance to land
WRITE_GAP = 2 * USEC

#: guard policy for the storage campaign: hair-trigger breakers (one
#: media failure opens a replica's breaker) with quick probe turnaround,
#: so evictions and re-admissions both happen within a short workload
STORAGE_POLICY_KW = dict(failure_window=8, failure_threshold=1,
                         probe_successes=1, probe_backoff=100 * USEC,
                         probe_backoff_factor=2.0,
                         probe_backoff_max=2_000 * USEC,
                         qdepth=16, nr_congestion_on=12,
                         nr_congestion_off=4)

#: the drill's storm segment: heavy media write errors and replica-path
#: loss (the events that evict replicas), plus a trickle of torn writes
#: and lost completion IRQs to exercise the tear/watchdog machinery
STORAGE_STORM_PLAN = FaultPlan(media_write_error=0.12, pxd_path_loss=0.06,
                               media_torn_write=0.03, blk_irq_lost=0.02)

#: writes per drill phase (full / --smoke)
DRILL_PHASES = (("baseline", 30), ("storm", 30), ("recovery", 30))
DRILL_SMOKE_PHASES = (("baseline", 10), ("storm", 10), ("recovery", 14))

#: post-storm settle time before the recovery phase starts measuring:
#: past the probe backoff cap, so opened breakers sit in PROBING and
#: the first recovery-phase completions trigger probe + resync
STORAGE_SETTLE = 2 * STORAGE_POLICY_KW["probe_backoff_max"]


def _storage_params(replicas: int = 3):
    params = default_params()
    return params.with_overrides(blk=replace(params.blk, replicas=replicas))


@dataclass
class StorageCellResult:
    """Outcome of one (OS config, fault rate) cell."""

    os_config: OSConfig
    rate: float
    writes: int
    acked: int
    failed_typed: int
    reads_typed: int
    goodput: float                     # bytes/second of acked writes
    counters: Dict[str, int]
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every write was acked intact or typed-failed."""
        return not self.violations


@dataclass
class DrillResult(PhasedResult):
    """Baseline/storm/recovery drill on one OS configuration."""

    os_config: OSConfig
    phases: List[Phase]
    evictions: int
    readmits: int
    resyncs: int
    counters: Dict[str, int]
    violations: List[str] = field(default_factory=list)


@dataclass
class StorageResult:
    """The full storage campaign: sweep cells plus per-config drills."""

    cells: List[StorageCellResult]
    drills: List[DrillResult]

    @property
    def violations(self) -> List[str]:
        """All contract violations across the campaign."""
        return ([v for cell in self.cells for v in cell.violations]
                + [v for drill in self.drills for v in drill.violations])

    def render(self) -> str:
        """Human-readable campaign report plus the integrity verdict."""
        lines = [f"Storage chaos sweep: pxd replicated writes "
                 f"({self.cells[0].writes if self.cells else 0} writes "
                 f"per cell, {_storage_params().blk.replicas} replicas)",
                 "", "config          rate     acked      typed  "
                 "goodput MB/s  evictions  readmits  fallbacks"]
        for c in self.cells:
            lines.append(
                f"{c.os_config.label:<15} {c.rate:<8g} "
                f"{c.acked:>3}/{c.writes:<5} {c.failed_typed:>6}  "
                f"{c.goodput / 1e6:>12.1f}  "
                f"{c.counters.get('pxd.evictions', 0):>9}  "
                f"{c.counters.get('pxd.readmits', 0):>8}  "
                f"{c.counters.get('pico.fallbacks', 0):>9}")
        lines.append("")
        lines.append("recovery drills (baseline / storm / recovery):")
        lines.append("config          phase      acked  typed  "
                     "goodput MB/s")
        for d in self.drills:
            for p in d.phases:
                lines.append(
                    f"{d.os_config.label:<15} {p.name:<10} "
                    f"{p.intact:>3}/{p.count:<3} {p.typed:>5}  "
                    f"{p.goodput / 1e6:>12.1f}")
            lines.append(
                f"{'':<15} ratio {d.recovery_ratio:.2f} "
                f"(bar {RECOVERY_BAR:.2f}), "
                f"{d.evictions} evictions, {d.readmits} readmits, "
                f"{d.resyncs} resyncs")
        lines.append("")
        if self.violations:
            lines.append(f"STORAGE VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("storage contract: every acked write readable "
                         "byte-intact from every in-service replica, "
                         "every failure typed, replica FSM legal, "
                         "goodput recovered")
        return "\n".join(lines)


class WriteTrain(ContractTrain):
    """The pxd write train every storage-contract check drives.

    Rank 0 on node 0 opens ``/dev/pxd/pxd0`` and maps one write's
    buffer.  Write ``i`` runs ``before(i)`` (when given; it reaches the
    device through :attr:`task` and :attr:`fd`), waits
    :data:`WRITE_GAP`, writes :meth:`payload` at sector
    ``i * WRITE_STRIDE``, waits for the completion and reads an acked
    write straight back.  The caller runs the machine; :meth:`outcome`
    then judges one write against the contract — **every write is acked
    and reads back intact, or fails with a typed**
    :class:`~repro.errors.MediaError` — and :meth:`audit` inspects the
    media.
    """

    carried = ("acked", "acked-read-typed")
    noun = "write"

    def __init__(self, machine, n_writes: int,
                 before: Optional[Callable[[int], Iterator]] = None):
        bufsize = WRITE_NSECTORS * machine.params.blk.sector_size
        super().__init__(machine, [bufsize] * n_writes, before)
        #: per write: what the write saw ("ok" or the typed error's name)
        #: and, once acked, what its read-back returned (the bytes or the
        #: typed error's name)
        self.write_out: Dict[int, str] = {}
        self.read_out: Dict[int, object] = {}
        self.task = machine.spawn_rank(0, 0)
        self.fd = None
        machine.sim.process(self._program(bufsize))

    def _program(self, bufsize):
        self.fd = yield from self.task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from self.task.syscall("mmap", bufsize)
        yield from self._drive(self._write, buf)

    def _write(self, i, buf):
        sim = self.machine.sim
        sector, payload = i * WRITE_STRIDE, self.payload(i)
        completion = Event(sim)
        yield from sim.delay(WRITE_GAP)
        try:
            yield from self.task.syscall(
                "writev", self.fd,
                [{"sector": sector, "payload": payload,
                  "completion": completion}, (buf, len(payload))])
            yield completion
        except MediaError as exc:
            self.write_out[i] = type(exc).__name__
            return
        self.write_out[i] = "ok"
        try:
            self.read_out[i] = yield from self.task.syscall(
                "ioctl", self.fd, ioc.PXD_IOCTL_READ,
                {"sector": sector, "nsectors": WRITE_NSECTORS})
        except MediaError as exc:
            self.read_out[i] = type(exc).__name__

    def payload(self, i: int) -> bytes:
        """The bytes write ``i`` carries."""
        return bytes([(7 * i + 1) & 0xFF]) * self.sizes[i]

    @property
    def acked(self) -> Dict[int, Tuple[int, bytes]]:
        """Write index -> ``(sector, payload)`` of every acked write."""
        return {i: (i * WRITE_STRIDE, self.payload(i))
                for i, out in sorted(self.write_out.items()) if out == "ok"}

    def outcome(self, i: int) -> str:
        """``"acked"``, ``"acked-read-typed"`` (acked, its read-back
        failed typed), ``"typed"``, or the reason write ``i`` breaks the
        storage contract."""
        written = self.write_out.get(i)
        if written is None:
            return "never resolved: no ack and no typed error"
        if written != "ok":
            return "typed"
        got = self.read_out.get(i)
        if got == self.payload(i):
            return "acked"
        if isinstance(got, str):
            return "acked-read-typed"
        if got is None:
            return "acked, but its read-back never returned"
        return "torn read-back: acked payload not returned, no typed error"

    def audit(self, label: str) -> List[str]:
        """End-of-run oracle: every acked write byte-intact on every
        in-service replica (direct media inspection, no timing)."""
        pxd = self.machine.nodes[0].pxd
        blockdev = self.machine.nodes[0].node.blockdev
        return [f"{label}: acked write {i} diverges on in-service replica "
                f"{r} at sector {sector}"
                for i, (sector, payload) in self.acked.items()
                for r in sorted(pxd.inservice)
                if blockdev.replicas[r].peek(sector, WRITE_NSECTORS)
                != payload]


def _run_cell(os_config: OSConfig, rate: float, n_writes: int,
              params=None) -> StorageCellResult:
    """Run one (config, rate) cell of the storage sweep.

    ``params`` overrides the default 3-replica calibration — the
    benchmark's ``storage`` workload passes its seeded calibrations
    through it (they must carry ``blk.replicas > 0`` or no block device
    is built).
    """
    # A zero-rate *plan* (rather than no plan) keeps the recovery
    # machinery active, so the rate-0 row is the protocol-overhead
    # baseline and the curve isolates the cost of the faults.
    from ..guard import GuardPolicy
    with planes(faults=FaultPlan.uniform(rate),
                guard=GuardPolicy(**STORAGE_POLICY_KW)):
        machine = build_machine(
            1, os_config,
            params=params if params is not None else _storage_params())
        train = WriteTrain(machine, n_writes)
        machine.sim.run()

        label = f"{os_config.label} rate={rate:g}"
        violations = train.audit(label)
        violations.extend(machine.oracle_violations())
        violations.extend(train.violations(label))
        acked, typed, _elapsed, goodput = train.tally(0, n_writes)
        # an acked write whose read-back failed typed is within contract;
        # counted so the report shows how often reads degrade
        reads_typed = [train.outcome(i) for i in range(n_writes)].count(
            "acked-read-typed")
        return StorageCellResult(
            os_config=os_config, rate=rate, writes=n_writes,
            acked=acked, failed_typed=typed, reads_typed=reads_typed,
            goodput=goodput, counters=dict(machine.tracer.counters),
            violations=violations)


def _run_drill(os_config: OSConfig,
               phases: Sequence[Tuple[str, int]]) -> DrillResult:
    """Baseline / storm / recovery over one live machine."""
    from ..guard import GuardPolicy
    starts = phase_starts(phases)
    zero_plan = FaultPlan.uniform(0.0)
    with planes(faults=zero_plan, guard=GuardPolicy(**STORAGE_POLICY_KW)):
        machine = build_machine(1, os_config, params=_storage_params())

        def enter_phase(i):
            # a phase's entry actions run before its first write, so its
            # measured span starts at that write
            name = starts.get(i)
            if name == "storm":
                machine.injector.plan = STORAGE_STORM_PLAN
            elif name == "recovery":
                machine.injector.plan = zero_plan
                # idle past the probe backoff cap so breakers sit in
                # PROBING and recovery traffic re-admits replicas
                yield from machine.sim.delay(STORAGE_SETTLE)

        train = WriteTrain(machine, sum(n for _, n in phases),
                           before=enter_phase)
        machine.sim.run()

        label = f"{os_config.label} drill"
        violations = train.audit(label)
        violations.extend(machine.oracle_violations())
        violations.extend(train.violations(label))
        counters = dict(machine.tracer.counters)
        drill = DrillResult(
            os_config=os_config, phases=train.phases(phases),
            evictions=counters.get("pxd.evictions", 0),
            readmits=counters.get("pxd.readmits", 0),
            resyncs=counters.get("pxd.resyncs", 0),
            counters=counters, violations=violations)
        violations.extend(drill.phase_violations(label, calm=("baseline",)))
        if drill.evictions == 0:
            violations.append(f"{label}: storm evicted no replica — the "
                              f"drill did not exercise eviction")
        if drill.readmits == 0:
            violations.append(f"{label}: no replica re-admitted — probe "
                              f"+ resync never completed")
        return drill


def run_storage(smoke: bool = False,
                rates: Optional[Sequence[float]] = None,
                configs: Sequence[OSConfig] = ALL_CONFIGS,
                n_writes: Optional[int] = None) -> StorageResult:
    """Run the storage fault sweep plus the per-config recovery drill."""
    if rates is None:
        rates = SMOKE_RATES if smoke else DEFAULT_RATES
    if n_writes is None:
        n_writes = 12 if smoke else 40
    cells = [_run_cell(os_config, rate, n_writes)
             for os_config in configs for rate in rates]
    phases = DRILL_SMOKE_PHASES if smoke else DRILL_PHASES
    drills = [_run_drill(os_config, phases) for os_config in configs]
    return StorageResult(cells=cells, drills=drills)
