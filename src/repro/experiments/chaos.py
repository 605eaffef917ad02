"""``python -m repro chaos`` — the fault-injection sweep.

For every OS configuration the paper evaluates, run a two-node message
workload under increasing uniform fault rates and check the end-to-end
contract of the recovery machinery: **every message is either delivered
byte-intact or surfaces a typed error** (:class:`DeviceTimeout` /
:class:`TransferCorrupt`) — nothing is silently lost or silently
corrupted.  Alongside the integrity verdict the sweep reports the
goodput degradation curve and the recovery counters (PicoDriver
fast→slow fallbacks, SDMA halts, PSM retransmits), which is how the
reproduction demonstrates the paper's central fast/slow split under
adversity rather than only on a perfect device.

The machine uses a 2-engine SDMA pool so that engine halts land on
in-use engines often enough to observe fallbacks at modest message
counts; all fault decisions come from dedicated seeded RNG streams, so
every cell of the sweep is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..config import ALL_CONFIGS, OSConfig, planes
from ..errors import DeviceTimeout, TransferCorrupt
from ..faults import FaultPlan
from ..params import default_params
from ..psm import Endpoint, TagMatcher
from ..sim import Event
from ..units import KiB, MiB, USEC
from .common import build_machine

#: one of each protocol regime: eager PIO, eager SDMA, rendezvous (4
#: windows at the default 256KB window size)
MESSAGE_SIZES = (4 * KiB, 96 * KiB, 1 * MiB)

#: uniform per-opportunity fault rates swept by the full run
DEFAULT_RATES = (0.0, 0.002, 0.005, 0.01)

#: trimmed sweep for CI (--smoke)
SMOKE_RATES = (0.0, 0.01)


@dataclass
class CellResult:
    """Outcome of one (OS config, fault rate) cell."""

    os_config: OSConfig
    rate: float
    messages: int
    delivered: int
    failed_typed: int
    goodput: float                     # bytes/second of intact delivery
    counters: Dict[str, int]
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every message was delivered intact or typed-failed."""
        return not self.violations


@dataclass
class ChaosResult:
    """The full sweep: cells plus a render method."""

    workload: str
    cells: List[CellResult]

    @property
    def violations(self) -> List[str]:
        """All integrity violations across the sweep."""
        return [v for cell in self.cells for v in cell.violations]

    def render(self) -> str:
        """Human-readable sweep table plus the integrity verdict."""
        lines = [f"Chaos sweep: {self.workload} "
                 f"({self.cells[0].messages if self.cells else 0} messages"
                 f" per cell)",
                 "", "config          rate     delivered  typed-fail  "
                 "goodput MB/s  fallbacks  halts  retransmits"]
        for c in self.cells:
            lines.append(
                f"{c.os_config.label:<15} {c.rate:<8g} "
                f"{c.delivered:>3}/{c.messages:<5}  {c.failed_typed:>10}  "
                f"{c.goodput / 1e6:>12.1f}  "
                f"{c.counters.get('pico.fallbacks', 0):>9}  "
                f"{c.counters.get('hfi.sdma_halts', 0):>5}  "
                f"{c.counters.get('psm.retransmits', 0):>11}")
        lines.append("")
        if self.violations:
            lines.append(f"INTEGRITY VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("data integrity: every message delivered intact "
                         "or failed with a typed error")
        return "\n".join(lines)


def _chaos_params(sdma_engines: int = 2):
    params = default_params()
    return params.with_overrides(
        nic=replace(params.nic, sdma_engines=sdma_engines))


def _regime_sizes(n: int) -> List[int]:
    """``n`` message sizes cycling through :data:`MESSAGE_SIZES`."""
    return [MESSAGE_SIZES[i % len(MESSAGE_SIZES)] for i in range(n)]


#: the receive/send outcomes the delivery contract accepts as failures
_TYPED = ("DeviceTimeout", "TransferCorrupt")


class MessageTrain:
    """The two-node message train every delivery-contract check drives.

    Rank 0 on node 0 sends message ``i`` (``sizes[i]`` bytes, tag
    ``(tag, i)``, payload ``("tok", i, size)``) to rank 1 on node 1,
    which posts every receive up front; each rank has one
    :class:`~repro.psm.Endpoint` and one ``2 * max(sizes)`` buffer.  The
    receiver starts first, then the sender: that order fixes the
    schedule, and with it every digest and PicoCheck choice point.
    ``before(i)``, when given, is a generator the sender runs before
    message ``i`` (the flap campaign's phase entry actions).

    The caller runs the machine; :meth:`outcome` then judges one message
    against the contract — **every message is delivered byte-intact or
    fails with a typed error** — and :meth:`tally` sums a run of them.
    """

    def __init__(self, machine, tag: str, sizes: Sequence[int],
                 before: Optional[Callable[[int], Iterator]] = None):
        self.machine = machine
        self.tag = tag
        self.sizes = list(sizes)
        self.before = before
        #: per message: sim time its send began and returned, and what
        #: the sender saw ("ok" or the typed error's name)
        self.sent_at: Dict[int, float] = {}
        self.returned_at: Dict[int, float] = {}
        self.send_out: Dict[int, str] = {}
        #: per message: the receive request posted for it
        self.recv_reqs: Dict[int, object] = {}
        sim = machine.sim
        t0 = machine.spawn_rank(0, 0, 0)
        t1 = machine.spawn_rank(1, 0, 1)
        ep0 = Endpoint(sim, machine.params, machine.nodes[0].node.hfi, t0,
                       tracer=machine.tracer)
        ep1 = Endpoint(sim, machine.params, machine.nodes[1].node.hfi, t1,
                       tracer=machine.tracer)
        # an empty train still maps a buffer: mmap rejects a zero length
        bufsize = 2 * max(self.sizes, default=1)
        sim.process(self._receiver(t1, ep1, bufsize))
        sim.process(self._sender(t0, ep0, ep1, bufsize))

    def _sender(self, task, ep, peer, bufsize):
        sim = self.machine.sim
        yield from ep.open()
        buf = yield from task.syscall("mmap", bufsize)
        while peer.addr is None:
            yield sim.timeout(1e-6)
        for i, size in enumerate(self.sizes):
            if self.before is not None:
                yield from self.before(i)
            self.sent_at[i] = sim.now
            try:
                yield from ep.mq_send(peer.addr, (self.tag, i), buf, size,
                                      payload=("tok", i, size))
                self.send_out[i] = "ok"
            except (DeviceTimeout, TransferCorrupt) as exc:
                self.send_out[i] = type(exc).__name__
            self.returned_at[i] = sim.now

    def _receiver(self, task, ep, bufsize):
        yield from ep.open()
        buf = yield from task.syscall("mmap", bufsize)
        for i in range(len(self.sizes)):
            self.recv_reqs[i] = ep.mq_irecv(
                TagMatcher(tag=(self.tag, i)), (buf, bufsize))

    def outcome(self, i: int) -> str:
        """``"intact"``, ``"typed"``, or the reason message ``i`` breaks
        the delivery contract."""
        size = self.sizes[i]
        req = self.recv_reqs.get(i)
        r_exc = None
        if req is not None and req.event.triggered:
            r_exc = req.event.exception
            if r_exc is None:
                if req.payload == ("tok", i, size) and req.nbytes == size:
                    return "intact"
                return (f"delivered corrupt (payload={req.payload!r}, "
                        f"nbytes={req.nbytes})")
        s_out = self.send_out.get(i, "hung")
        if (r_exc is not None and type(r_exc).__name__ in _TYPED) \
                or s_out in _TYPED:
            return "typed"
        if r_exc is not None:
            return f"untyped receive error {r_exc!r}"
        return f"never delivered and no typed error (sender: {s_out})"

    def violations(self, label: str) -> List[str]:
        """One line per message that broke the contract, naming
        ``label``, the message index and its size."""
        found = []
        for i, size in enumerate(self.sizes):
            verdict = self.outcome(i)
            if verdict not in ("intact", "typed"):
                found.append(f"{label} msg {i} ({size}B): {verdict}")
        return found

    def tally(self, lo: int, hi: int) -> Tuple[int, int, float, float]:
        """``(delivered, typed failures, elapsed, goodput)`` over messages
        ``lo`` to ``hi - 1``.  Elapsed runs from the first send's start
        to the last send's return; goodput is intact bytes over it."""
        verdicts = [self.outcome(i) for i in range(lo, hi)]
        intact = [size for size, verdict in zip(self.sizes[lo:hi], verdicts)
                  if verdict == "intact"]
        elapsed = 1e-12
        if hi > lo:
            end = self.returned_at.get(hi - 1, self.machine.sim.now)
            elapsed = max(end - self.sent_at.get(lo, 0.0), 1e-12)
        return (len(intact), verdicts.count("typed"), elapsed,
                sum(intact) / elapsed)


def _run_cell(os_config: OSConfig, rate: float, n_messages: int,
              params=None) -> CellResult:
    """Run one (config, rate) cell of the ping-pong-style workload.

    ``params`` overrides the 2-engine chaos calibration — the PicoTune
    environment reuses this cell as its goodput-under-faults fitness
    over arbitrary design points.
    """
    # A zero-rate *plan* (rather than no plan) keeps the reliability
    # protocol active, so the rate-0 row is the protocol-overhead
    # baseline and the curve isolates the cost of the faults themselves.
    with planes(faults=FaultPlan.uniform(rate)):
        machine = build_machine(
            2, os_config,
            params=params if params is not None else _chaos_params())
        train = MessageTrain(machine, "chaos", _regime_sizes(n_messages))
        # Drain completely: bounded watchdogs mean the simulation always
        # quiesces, even for messages that end in a typed failure.
        machine.sim.run()
        delivered, failed, _elapsed, goodput = train.tally(0, n_messages)
        return CellResult(
            os_config=os_config, rate=rate, messages=n_messages,
            delivered=delivered, failed_typed=failed, goodput=goodput,
            counters=dict(machine.tracer.counters),
            violations=train.violations(
                f"{os_config.label} rate={rate:g}"))


def _cell_job(job: Tuple[OSConfig, float, int]) -> CellResult:
    """Top-level (picklable) shard form of :func:`_run_cell`."""
    os_config, rate, n_messages = job
    return _run_cell(os_config, rate, n_messages)


def run_chaos(workload: str = "pingpong", smoke: bool = False,
              rates: Optional[Sequence[float]] = None,
              configs: Sequence[OSConfig] = ALL_CONFIGS,
              n_messages: Optional[int] = None,
              workers: int = 1) -> ChaosResult:
    """Run the fault-rate sweep over every requested OS configuration.

    ``workers > 1`` fans the (config, rate) cells across processes via
    the PicoTune shard runner; every cell seeds its own machine, so the
    merged result is bit-identical to the serial sweep.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown chaos workload {workload!r}; choose "
                         f"from {', '.join(WORKLOADS)}")
    if rates is None:
        rates = SMOKE_RATES if smoke else DEFAULT_RATES
    if n_messages is None:
        n_messages = 9 if smoke else 24
    from ..tune.runner import map_shards
    cells = map_shards(_cell_job,
                       [(os_config, rate, n_messages)
                        for os_config in configs for rate in rates],
                       workers=workers)
    return ChaosResult(workload=workload, cells=cells)


# -- the flap campaign: sustained faults + recovery under PicoGuard ---------

#: guard policy of the flap campaign: aggressive enough that a burst of
#: SDMA faults visibly opens per-engine breakers within a few dozen
#: messages, with quick probe turnaround so the recovery phase shows
#: failback rather than a still-degraded tail
FLAP_POLICY_KW = dict(failure_window=6, failure_threshold=2,
                      probe_successes=2, probe_backoff=100 * USEC,
                      probe_backoff_factor=2.0,
                      probe_backoff_max=2_000 * USEC,
                      qdepth=32, nr_congestion_on=24, nr_congestion_off=8)

#: the burst segment's fault mix: heavy SDMA descriptor errors and
#: spontaneous halts (the events that feed the per-engine breakers)
#: plus a trickle of fabric drops so the PSM reliability layer stays hot
FLAP_BURST_PLAN = FaultPlan(sdma_desc_error=0.08, sdma_engine_halt=0.08,
                            fabric_drop=0.01)

#: message counts per campaign phase: a no-fault baseline, the fault
#: burst, the recovery segment (faults off again), and a final segment
#: run across a suspend/resume drill on the sender's device
FLAP_PHASES = (("baseline", 18), ("burst", 18), ("recovery", 18),
               ("drill", 9))
FLAP_SMOKE_PHASES = (("baseline", 6), ("burst", 6), ("recovery", 9),
                     ("drill", 3))

#: how long the drill holds the sender's device suspended (well under
#: the PSM watchdogs' total retry budget, so parked traffic replays
#: instead of timing out)
FLAP_SUSPEND_HOLD = 300 * USEC

#: post-burst settle time before the recovery phase starts measuring:
#: long enough for every opened breaker's probe timer to elapse (twice
#: the backoff cap), so recovery goodput measures the re-admitted fast
#: path rather than the tail of the probe backoff
FLAP_SETTLE = 2 * FLAP_POLICY_KW["probe_backoff_max"]

#: acceptance bar: recovery-phase goodput as a fraction of the no-fault
#: baseline phase
FLAP_RECOVERY_BAR = 0.9


@dataclass
class FlapPhase:
    """Per-phase outcome of the flap campaign."""

    name: str
    messages: int
    delivered: int
    failed_typed: int
    elapsed: float
    goodput: float                     # bytes/second of intact delivery


@dataclass
class FlapResult:
    """The flap campaign: per-phase goodput plus guard accounting."""

    phases: List[FlapPhase]
    counters: Dict[str, int]
    snapshots: List[Dict[str, object]]  # final guard snapshot per node
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when integrity, FSM legality and the recovery bar held."""
        return not self.violations

    def phase(self, name: str) -> FlapPhase:
        """The named campaign phase."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def recovery_ratio(self) -> float:
        """Recovery-phase goodput over the no-fault baseline phase."""
        base = self.phase("baseline").goodput
        return self.phase("recovery").goodput / base if base > 0 else 0.0

    def render(self) -> str:
        """Human-readable flap report."""
        lines = ["Flap campaign: sustained SDMA fault burst under "
                 "PicoGuard (McKernel+HFI1)",
                 f"  burst plan: {FLAP_BURST_PLAN.describe()}",
                 "", "phase      messages  delivered  typed-fail  "
                 "elapsed ms  goodput MB/s"]
        for p in self.phases:
            lines.append(
                f"{p.name:<10} {p.messages:>8}  {p.delivered:>9}  "
                f"{p.failed_typed:>10}  {p.elapsed * 1e3:>10.2f}  "
                f"{p.goodput / 1e6:>12.1f}")
        lines.append("")
        lines.append(f"recovery ratio: {self.recovery_ratio:.2f} "
                     f"(bar: {FLAP_RECOVERY_BAR:.2f})")
        per_engine = {k: v for k, v in sorted(self.counters.items())
                      if k.startswith(("guard.failover.",
                                       "guard.failback.",
                                       "pico.fallback.engine"))}
        lines.append(
            f"guard: {self.counters.get('guard.failovers', 0)} failovers, "
            f"{self.counters.get('guard.failbacks', 0)} failbacks, "
            f"{self.counters.get('guard.routed_offload', 0)} routed to "
            f"offload at dispatch, "
            f"{self.counters.get('guard.congestion_waits', 0)} congestion "
            f"waits, {self.counters.get('guard.suspends', 0)} suspends / "
            f"{self.counters.get('guard.resumes', 0)} resumes "
            f"({self.counters.get('guard.parked', 0)} parked)")
        for name, value in per_engine.items():
            lines.append(f"  {name} = {value}")
        lines.append("")
        if self.violations:
            lines.append(f"FLAP VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("flap verdict: every message intact or typed, "
                         "breaker FSM legal, goodput recovered")
        return "\n".join(lines)


def run_flap(smoke: bool = False,
             phases: Optional[Sequence[Tuple[str, int]]] = None) -> FlapResult:
    """Run the sustained-fault flap campaign on McKernel+HFI1.

    Four phases over one live machine: a no-fault **baseline**, a
    **burst** during which the shared injector's plan is swapped for
    :data:`FLAP_BURST_PLAN` (per-engine breakers open and traffic
    reroutes), a **recovery** segment with faults off again (probes
    re-admit the engines; goodput must return to
    ``FLAP_RECOVERY_BAR x`` baseline), and a **drill** segment run
    while the sender's device is suspended and resumed under the live
    message stream (parked requests must replay in order).
    """
    from ..guard import GuardPolicy
    if phases is None:
        phases = FLAP_SMOKE_PHASES if smoke else FLAP_PHASES
    names = [phase_name for phase_name, count in phases
             for _ in range(count)]
    zero_plan = FaultPlan.uniform(0.0)
    with planes(faults=zero_plan, guard=GuardPolicy(**FLAP_POLICY_KW)):
        machine = build_machine(2, OSConfig.MCKERNEL_HFI,
                                params=_chaos_params())
        sim = machine.sim
        drill_start = Event(sim)
        guard0 = machine.nodes[0].guard

        def enter_phase(i):
            # a phase's entry actions run before its first send, so its
            # measured span starts at that send
            name = names[i]
            if i and names[i - 1] == name:
                return
            if name == "burst":
                machine.injector.plan = FLAP_BURST_PLAN
            elif name != "baseline":
                machine.injector.plan = zero_plan
            if name == "recovery":
                # faults are off; idle across the probe backoff cap so
                # the measurement starts with breakers in PROBING, ready
                # to fail back on first traffic
                yield sim.timeout(FLAP_SETTLE)
            if name == "drill":
                drill_start.succeed()

        def drill():
            # suspend the sender's device under live traffic, hold it
            # quiescent, then resume and let the parked queue replay
            yield drill_start
            yield from guard0.suspend()
            yield sim.timeout(FLAP_SUSPEND_HOLD)
            guard0.resume()

        train = MessageTrain(machine, "flap", _regime_sizes(len(names)),
                             before=enter_phase)
        sim.process(drill())
        sim.run()

        violations = train.violations("flap")
        results: List[FlapPhase] = []
        lo = 0
        for phase_name, count in phases:
            delivered, typed, elapsed, goodput = train.tally(lo, lo + count)
            results.append(FlapPhase(
                name=phase_name, messages=count, delivered=delivered,
                failed_typed=typed, elapsed=elapsed, goodput=goodput))
            lo += count
        snapshots = [mn.guard.snapshot() for mn in machine.nodes
                     if mn.guard is not None]
        result = FlapResult(phases=results,
                            counters=dict(machine.tracer.counters),
                            snapshots=snapshots, violations=violations)
        # campaign-level oracles beyond per-message integrity
        violations.extend(machine.oracle_violations())
        for phase in results:
            if phase.name in ("baseline", "drill") and phase.failed_typed:
                violations.append(
                    f"{phase.name} phase saw {phase.failed_typed} typed "
                    f"failures with no faults injected")
        if result.recovery_ratio < FLAP_RECOVERY_BAR:
            violations.append(
                f"goodput did not recover: recovery phase ran at "
                f"{result.recovery_ratio:.2f}x the no-fault baseline "
                f"(bar {FLAP_RECOVERY_BAR:.2f})")
        if result.counters.get("guard.failovers", 0) == 0:
            violations.append("burst produced no failovers — the "
                              "campaign did not exercise the breaker")
        if result.counters.get("guard.failbacks", 0) == 0:
            violations.append("no failbacks — probes never re-admitted "
                              "a path after the burst")
        if result.counters.get("guard.parked", 0) == 0:
            violations.append("drill parked no requests — suspend never "
                              "overlapped live traffic")
        return result


def _run_storage(smoke: bool = False, **kw):
    """Deferred import of the storage campaign (keeps the chaos module
    light for runs that never touch the block device)."""
    from .storage import run_storage
    return run_storage(smoke=smoke, **kw)


#: chaos workloads (the sweep harness is workload-shaped for growth;
#: ping-pong style send/recv is the one the paper's figures build on,
#: ``flap`` is the PicoGuard sustained-fault/recovery campaign, and
#: ``storage`` is the PicoBlock replicated-write sweep + drill)
WORKLOADS = {"pingpong": run_chaos, "flap": run_flap,
             "storage": _run_storage}


def cmd_chaos(argv: List[str]) -> int:
    """Entry point for ``python -m repro chaos [workload] [--smoke]
    [--flap] [--storage] [--workers N]``."""
    argv = list(argv)
    smoke = "--smoke" in argv
    flap = "--flap" in argv
    storage = "--storage" in argv
    workers = 1
    if "--workers" in argv:
        i = argv.index("--workers")
        if i + 1 >= len(argv) or not argv[i + 1].isdigit():
            print("--workers needs an integer value")
            return 2
        workers = int(argv[i + 1])
        del argv[i:i + 2]
    rest = [a for a in argv if a not in ("--smoke", "--flap", "--storage")]
    unknown = [a for a in rest if a.startswith("-")]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n"
              "usage: python -m repro chaos [workload] [--smoke] [--flap] "
              "[--storage] [--workers N]")
        return 2
    workload = rest[0] if rest else (
        "flap" if flap else ("storage" if storage else "pingpong"))
    if workload not in WORKLOADS:
        print(f"unknown chaos workload {workload!r}; choose from "
              f"{', '.join(WORKLOADS)}")
        return 2
    if workload == "flap" or flap:
        result = run_flap(smoke=smoke)
    elif workload == "storage" or storage:
        result = _run_storage(smoke=smoke)
    else:
        result = run_chaos(workload, smoke=smoke, workers=workers)
    print(result.render())
    return 1 if result.violations else 0
