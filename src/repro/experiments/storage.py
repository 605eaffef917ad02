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
``STORAGE_RECOVERY_BAR x`` the no-fault baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ALL_CONFIGS, OSConfig, planes
from ..errors import MediaError
from ..faults import FaultPlan
from ..linux.pxd import ioctls as ioc
from ..params import default_params
from ..sim import Event
from ..units import USEC
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

#: acceptance bar: recovery-phase goodput over the no-fault baseline
STORAGE_RECOVERY_BAR = 0.9


def _storage_params(replicas: int = 3):
    params = default_params()
    return params.with_overrides(blk=replace(params.blk, replicas=replicas))


def _payload(i: int, sector_size: int) -> bytes:
    return bytes([(7 * i + 1) & 0xFF]) * (WRITE_NSECTORS * sector_size)


def _audit_media(machine, acked: Dict[int, Tuple[int, bytes]],
                 label: str) -> List[str]:
    """End-of-cell oracle: every acked write byte-intact on every
    in-service replica (direct media inspection, no timing)."""
    pxd = machine.nodes[0].pxd
    blockdev = machine.nodes[0].node.blockdev
    violations = []
    for i, (sector, payload) in sorted(acked.items()):
        for r in sorted(pxd.inservice):
            got = blockdev.replicas[r].peek(sector, WRITE_NSECTORS)
            if got != payload:
                violations.append(
                    f"{label}: acked write {i} diverges on in-service "
                    f"replica {r} at sector {sector}")
    return violations


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
class DrillPhase:
    """Per-phase outcome of the storage recovery drill."""

    name: str
    writes: int
    acked: int
    failed_typed: int
    elapsed: float
    goodput: float


@dataclass
class DrillResult:
    """Baseline/storm/recovery drill on one OS configuration."""

    os_config: OSConfig
    phases: List[DrillPhase]
    evictions: int
    readmits: int
    resyncs: int
    counters: Dict[str, int]
    violations: List[str] = field(default_factory=list)

    def phase(self, name: str) -> DrillPhase:
        """The named drill phase."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def recovery_ratio(self) -> float:
        """Recovery-phase goodput over the no-fault baseline phase."""
        base = self.phase("baseline").goodput
        return self.phase("recovery").goodput / base if base > 0 else 0.0


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
                    f"{p.acked:>3}/{p.writes:<3} {p.failed_typed:>5}  "
                    f"{p.goodput / 1e6:>12.1f}")
            lines.append(
                f"{'':<15} ratio {d.recovery_ratio:.2f} "
                f"(bar {STORAGE_RECOVERY_BAR:.2f}), "
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


def _writer(machine, task, jobs, outcomes, acked, span, phase_spans=None):
    """The cell/drill workload: open the device, write disjoint sector
    runs, read each acked write straight back (read-your-writes)."""
    sim = machine.sim
    sector_size = machine.params.blk.sector_size
    bufsize = WRITE_NSECTORS * sector_size

    def app():
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", bufsize)
        span["start"] = sim.now
        current = None
        for job in jobs:
            phase, i = job["phase"], job["index"]
            if job.get("on_enter") is not None:
                yield from job["on_enter"]()
            if phase_spans is not None and phase != current:
                # phase entry actions (plan swap, settle) run above, so
                # the measured span starts at the first write
                if current is not None:
                    phase_spans[current].append(sim.now)
                current = phase
                phase_spans[current] = [sim.now]
            sector = i * WRITE_STRIDE
            payload = _payload(i, sector_size)
            completion = Event(sim)
            yield sim.timeout(WRITE_GAP)
            try:
                yield from task.syscall(
                    "writev", fd,
                    [{"sector": sector, "payload": payload,
                      "completion": completion}, (buf, len(payload))])
                yield completion
            except MediaError as exc:
                outcomes[i] = ("typed", phase, type(exc).__name__)
                continue
            acked[i] = (sector, payload)
            try:
                data = yield from task.syscall(
                    "ioctl", fd, ioc.PXD_IOCTL_READ,
                    {"sector": sector, "nsectors": WRITE_NSECTORS})
            except MediaError as exc:
                outcomes[i] = ("acked-read-typed", phase,
                               type(exc).__name__)
                continue
            if data == payload:
                outcomes[i] = ("acked", phase, "")
            else:
                outcomes[i] = ("torn-read", phase, "")
        span["end"] = sim.now
        if phase_spans is not None and current is not None:
            phase_spans[current].append(sim.now)

    return app


def _run_cell(os_config: OSConfig, rate: float, n_writes: int,
              params=None) -> StorageCellResult:
    """Run one (config, rate) cell of the storage sweep.

    ``params`` overrides the default 3-replica calibration — the
    PicoTune environment reuses this cell as its storage-goodput
    fitness over arbitrary design points (it must carry
    ``blk.replicas > 0`` or no block device is built).
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
        task = machine.spawn_rank(0, 0)
        jobs = [{"phase": "sweep", "index": i, "on_enter": None}
                for i in range(n_writes)]
        outcomes: Dict[int, Tuple[str, str, str]] = {}
        acked: Dict[int, Tuple[int, bytes]] = {}
        span: Dict[str, Optional[float]] = {"start": None, "end": None}
        machine.sim.process(
            _writer(machine, task, jobs, outcomes, acked, span)())
        machine.sim.run()

        label = f"{os_config.label} rate={rate:g}"
        violations = _audit_media(machine, acked, label)
        violations.extend(machine.oracle_violations())
        n_acked = n_typed = n_read_typed = 0
        acked_bytes = 0
        for i in range(n_writes):
            verdict, _phase, _exc = outcomes.get(i, ("hung", "sweep", ""))
            if verdict == "acked":
                n_acked += 1
                acked_bytes += len(acked[i][1])
            elif verdict == "typed":
                n_typed += 1
            elif verdict == "acked-read-typed":
                # the write is acked and audited above; the read-back
                # failing *typed* is within contract (it is counted so
                # the report shows how often reads degrade)
                n_acked += 1
                n_read_typed += 1
                acked_bytes += len(acked[i][1])
            else:
                violations.append(
                    f"{label}: write {i} ended '{verdict}' — neither "
                    f"intact nor typed")
        start = span["start"] if span["start"] is not None else 0.0
        end = span["end"] if span["end"] is not None else machine.sim.now
        elapsed = max(end - start, 1e-12)
        return StorageCellResult(
            os_config=os_config, rate=rate, writes=n_writes,
            acked=n_acked, failed_typed=n_typed, reads_typed=n_read_typed,
            goodput=acked_bytes / elapsed,
            counters=dict(machine.tracer.counters),
            violations=violations)


def _run_drill(os_config: OSConfig,
               phases: Sequence[Tuple[str, int]]) -> DrillResult:
    """Baseline / storm / recovery over one live machine."""
    from ..guard import GuardPolicy
    zero_plan = FaultPlan.uniform(0.0)
    with planes(faults=zero_plan, guard=GuardPolicy(**STORAGE_POLICY_KW)):
        machine = build_machine(1, os_config, params=_storage_params())
        sim = machine.sim
        task = machine.spawn_rank(0, 0)
        phase_spans: Dict[str, List[float]] = {}

        def enter(phase_name):
            def on_enter():
                if phase_name == "storm":
                    machine.injector.plan = STORAGE_STORM_PLAN
                elif phase_name == "recovery":
                    machine.injector.plan = zero_plan
                    # idle past the probe backoff cap so breakers sit in
                    # PROBING and recovery traffic re-admits replicas
                    yield sim.timeout(STORAGE_SETTLE)
            return on_enter

        jobs = []
        for phase_name, count in phases:
            for k in range(count):
                jobs.append({"phase": phase_name, "index": len(jobs),
                             "on_enter": enter(phase_name) if k == 0
                             else None})
        outcomes: Dict[int, Tuple[str, str, str]] = {}
        acked: Dict[int, Tuple[int, bytes]] = {}
        span: Dict[str, Optional[float]] = {"start": None, "end": None}
        sim.process(_writer(machine, task, jobs, outcomes, acked, span,
                            phase_spans=phase_spans)())
        sim.run()

        label = f"{os_config.label} drill"
        violations = _audit_media(machine, acked, label)
        violations.extend(machine.oracle_violations())
        by_phase: Dict[str, List[float]] = {}
        results: List[DrillPhase] = []
        for job in jobs:
            phase_name, i = job["phase"], job["index"]
            stats = by_phase.setdefault(phase_name, [0, 0, 0.0])
            verdict, _p, _exc = outcomes.get(i, ("hung", phase_name, ""))
            if verdict in ("acked", "acked-read-typed"):
                stats[0] += 1
                stats[2] += len(acked[i][1])
            elif verdict == "typed":
                stats[1] += 1
            else:
                violations.append(
                    f"{label}: write {i} ({phase_name}) ended "
                    f"'{verdict}' — neither intact nor typed")
        for phase_name, count in phases:
            marks = phase_spans.get(phase_name, [0.0, 0.0])
            elapsed = max(marks[-1] - marks[0], 1e-12)
            stats = by_phase.get(phase_name, [0, 0, 0.0])
            results.append(DrillPhase(
                name=phase_name, writes=count, acked=int(stats[0]),
                failed_typed=int(stats[1]), elapsed=elapsed,
                goodput=stats[2] / elapsed))
        counters = dict(machine.tracer.counters)
        drill = DrillResult(
            os_config=os_config, phases=results,
            evictions=counters.get("pxd.evictions", 0),
            readmits=counters.get("pxd.readmits", 0),
            resyncs=counters.get("pxd.resyncs", 0),
            counters=counters, violations=violations)
        if drill.phase("baseline").failed_typed:
            violations.append(f"{label}: baseline phase saw typed "
                              f"failures with no faults injected")
        if drill.evictions == 0:
            violations.append(f"{label}: storm evicted no replica — the "
                              f"drill did not exercise eviction")
        if drill.readmits == 0:
            violations.append(f"{label}: no replica re-admitted — probe "
                              f"+ resync never completed")
        if drill.recovery_ratio < STORAGE_RECOVERY_BAR:
            violations.append(
                f"{label}: goodput did not recover — recovery ran at "
                f"{drill.recovery_ratio:.2f}x baseline "
                f"(bar {STORAGE_RECOVERY_BAR:.2f})")
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
