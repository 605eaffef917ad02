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
from .common import build_machine, map_shards

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

    cells: List[CellResult]

    @property
    def violations(self) -> List[str]:
        """All integrity violations across the sweep."""
        return [v for cell in self.cells for v in cell.violations]

    def render(self) -> str:
        """Human-readable sweep table plus the integrity verdict."""
        lines = [f"Chaos sweep: pingpong "
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


@dataclass
class Phase:
    """One phase of a recovery campaign (flap or a storage drill): its
    operation count, then :meth:`ContractTrain.tally` over them."""

    name: str
    count: int
    intact: int
    typed: int
    elapsed: float
    goodput: float                     # bytes/second carried intact


class ContractTrain:
    """What every contract train shares: the sim time each operation
    began (after ``before(i)``) and returned, the breach list and the
    tally over a run of operations.

    A subclass passes its operation sizes, runs its rank program's
    operations through :meth:`_drive` and supplies ``outcome(i)``, the
    contract verdict of operation ``i``: one of :attr:`carried`,
    ``"typed"`` (a failure within contract), or the reason the operation
    breaks the contract.
    """

    #: verdicts of an operation carried intact
    carried: Tuple[str, ...] = ("intact",)
    #: what a violation line calls one operation
    noun = "msg"

    def __init__(self, machine, sizes: Sequence[int],
                 before: Optional[Callable[[int], Iterator]]):
        self.machine = machine
        self.sizes = list(sizes)
        self.before = before
        self.sent_at: Dict[int, float] = {}
        self.returned_at: Dict[int, float] = {}

    def _drive(self, op, *args):
        """Run ``before(i)`` then ``op(i, *args)`` for every operation,
        recording when each began and returned."""
        sim = self.machine.sim
        for i in range(len(self.sizes)):
            if self.before is not None:
                yield from self.before(i)
            self.sent_at[i] = sim.now
            yield from op(i, *args)
            self.returned_at[i] = sim.now

    def violations(self, label: str) -> List[str]:
        """One line per operation that broke the contract, naming
        ``label``, the operation's index and its size."""
        found = []
        for i, size in enumerate(self.sizes):
            verdict = self.outcome(i)
            if verdict not in self.carried and verdict != "typed":
                found.append(f"{label} {self.noun} {i} ({size}B): {verdict}")
        return found

    def tally(self, lo: int, hi: int) -> Tuple[int, int, float, float]:
        """``(carried, typed failures, elapsed, goodput)`` over operations
        ``lo`` to ``hi - 1``.  Elapsed runs from the first operation's
        start to the last one's return; goodput is carried bytes over
        it."""
        verdicts = [self.outcome(i) for i in range(lo, hi)]
        carried = [size for size, verdict in zip(self.sizes[lo:hi], verdicts)
                   if verdict in self.carried]
        elapsed = 1e-12
        if hi > lo:
            end = self.returned_at.get(hi - 1, self.machine.sim.now)
            elapsed = max(end - self.sent_at.get(lo, 0.0), 1e-12)
        return (len(carried), verdicts.count("typed"), elapsed,
                sum(carried) / elapsed)

    def phases(self, phases: Sequence[Tuple[str, int]]) -> List[Phase]:
        """One :class:`Phase` per ``(name, count)``, over consecutive
        runs of operations."""
        results = []
        lo = 0
        for name, count in phases:
            results.append(Phase(name, count, *self.tally(lo, lo + count)))
            lo += count
        return results


#: the receive/send outcomes the delivery contract accepts as failures
_TYPED = ("DeviceTimeout", "TransferCorrupt")


class MessageTrain(ContractTrain):
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
        super().__init__(machine, sizes, before)
        self.tag = tag
        #: per message: what the sender saw ("ok" or the typed error's
        #: name) and the receive request posted for it
        self.send_out: Dict[int, str] = {}
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
            yield from sim.delay(1e-6)
        yield from self._drive(self._send, ep, peer, buf)

    def _send(self, i, ep, peer, buf):
        size = self.sizes[i]
        try:
            yield from ep.mq_send(peer.addr, (self.tag, i), buf, size,
                                  payload=("tok", i, size))
            self.send_out[i] = "ok"
        except (DeviceTimeout, TransferCorrupt) as exc:
            self.send_out[i] = type(exc).__name__

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


def _run_cell(os_config: OSConfig, rate: float, n_messages: int,
              params=None) -> CellResult:
    """Run one (config, rate) cell of the ping-pong-style workload.

    ``params`` overrides the 2-engine chaos calibration — the benchmark's
    ``chaos`` workload passes its seeded calibrations through it.
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


def run_chaos(smoke: bool = False,
              rates: Optional[Sequence[float]] = None,
              configs: Sequence[OSConfig] = ALL_CONFIGS,
              n_messages: Optional[int] = None,
              workers: int = 1) -> ChaosResult:
    """Run the ping-pong fault-rate sweep over every requested OS
    configuration.

    ``workers > 1`` fans the (config, rate) cells across processes via
    :func:`~repro.experiments.common.map_shards`; every cell seeds its
    own machine, so the merged result is bit-identical to the serial
    sweep.
    """
    if rates is None:
        rates = SMOKE_RATES if smoke else DEFAULT_RATES
    if n_messages is None:
        n_messages = 9 if smoke else 24
    cells = map_shards(_cell_job,
                       [(os_config, rate, n_messages)
                        for os_config in configs for rate in rates],
                       workers=workers)
    return ChaosResult(cells=cells)


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

#: acceptance bar of every recovery campaign: recovery-phase goodput as
#: a fraction of the no-fault baseline phase
RECOVERY_BAR = 0.9


def phase_starts(phases: Sequence[Tuple[str, int]]) -> Dict[int, str]:
    """Each phase's first operation index, mapped to the phase's name
    (an empty phase gives way to the one that starts where it would)."""
    counts = [count for _name, count in phases]
    return {sum(counts[:k]): name for k, (name, _n) in enumerate(phases)}


class PhasedResult:
    """What the flap campaign's and the storage drill's results share:
    phase lookup, the recovery ratio and the per-phase verdicts.  A
    subclass is a dataclass with a ``phases`` list of :class:`Phase`."""

    def phase(self, name: str) -> Phase:
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

    def phase_violations(self, label: str,
                         calm: Sequence[str]) -> List[str]:
        """A typed failure in a ``calm`` (no-fault) phase, and recovery
        goodput under :data:`RECOVERY_BAR` x baseline."""
        found = [f"{label}: {p.name} phase saw {p.typed} typed failures "
                 f"with no faults injected"
                 for p in self.phases if p.name in calm and p.typed]
        if self.recovery_ratio < RECOVERY_BAR:
            found.append(
                f"{label}: goodput did not recover: recovery phase ran at "
                f"{self.recovery_ratio:.2f}x the no-fault baseline "
                f"(bar {RECOVERY_BAR:.2f})")
        return found


@dataclass
class FlapResult(PhasedResult):
    """The flap campaign: per-phase goodput plus guard accounting."""

    phases: List[Phase]
    counters: Dict[str, int]
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when integrity, FSM legality and the recovery bar held."""
        return not self.violations

    def render(self) -> str:
        """Human-readable flap report."""
        lines = ["Flap campaign: sustained SDMA fault burst under "
                 "PicoGuard (McKernel+HFI1)",
                 f"  burst plan: {FLAP_BURST_PLAN.describe()}",
                 "", "phase      messages  delivered  typed-fail  "
                 "elapsed ms  goodput MB/s"]
        for p in self.phases:
            lines.append(
                f"{p.name:<10} {p.count:>8}  {p.intact:>9}  "
                f"{p.typed:>10}  {p.elapsed * 1e3:>10.2f}  "
                f"{p.goodput / 1e6:>12.1f}")
        lines.append("")
        lines.append(f"recovery ratio: {self.recovery_ratio:.2f} "
                     f"(bar: {RECOVERY_BAR:.2f})")
        per_engine = {k: v for k, v in sorted(self.counters.items())
                      if k.startswith(("guard.failovers.",
                                       "guard.failbacks.",
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
    re-admit the engines; goodput must return to ``RECOVERY_BAR x``
    baseline), and a **drill** segment run while the sender's device is
    suspended and resumed under the live message stream (parked
    requests must replay in order).
    """
    from ..guard import GuardPolicy
    if phases is None:
        phases = FLAP_SMOKE_PHASES if smoke else FLAP_PHASES
    starts = phase_starts(phases)
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
            name = starts.get(i)
            if name is None:
                return
            if name == "burst":
                machine.injector.plan = FLAP_BURST_PLAN
            elif name != "baseline":
                machine.injector.plan = zero_plan
            if name == "recovery":
                # faults are off; idle across the probe backoff cap so
                # the measurement starts with breakers in PROBING, ready
                # to fail back on first traffic
                yield from sim.delay(FLAP_SETTLE)
            if name == "drill":
                drill_start.succeed()

        def drill():
            # suspend the sender's device under live traffic, hold it
            # quiescent, then resume and let the parked queue replay
            yield drill_start
            yield from guard0.suspend()
            yield from sim.delay(FLAP_SUSPEND_HOLD)
            guard0.resume()

        train = MessageTrain(machine, "flap",
                             _regime_sizes(sum(n for _, n in phases)),
                             before=enter_phase)
        sim.process(drill())
        sim.run()

        violations = train.violations("flap")
        result = FlapResult(phases=train.phases(phases),
                            counters=dict(machine.tracer.counters),
                            violations=violations)
        # campaign-level oracles beyond per-message integrity
        violations.extend(machine.oracle_violations())
        violations.extend(result.phase_violations(
            "flap", calm=("baseline", "drill")))
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


def cmd_chaos(argv: List[str]) -> int:
    """Entry point for ``python -m repro chaos [--smoke] [--flap |
    --storage] [--workers N]``: the ping-pong sweep by default, the flap
    campaign with ``--flap``, the storage campaign with ``--storage``."""
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
    if rest:
        print(f"unknown argument(s) {', '.join(rest)}\n"
              "usage: python -m repro chaos [--smoke] [--flap | --storage] "
              "[--workers N]  (default: the pingpong sweep)")
        return 2
    if flap:
        result = run_flap(smoke=smoke)
    elif storage:
        # deferred: runs that never touch the block device skip it
        from .storage import run_storage
        result = run_storage(smoke=smoke)
    else:
        result = run_chaos(smoke=smoke, workers=workers)
    print(result.render())
    return 1 if result.violations else 0
