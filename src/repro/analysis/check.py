"""PicoCheck: a bounded model checker for the cross-kernel protocols.

KSan, PicoLockdep and the chaos sweep check what *did* happen on one
seeded schedule; the protocol machines they watch (McKernel dispatcher
vs. hfi1 IRQ top/bottom halves, SDMA halt/restart, fast-path->offload
fallback) can still hide bugs in interleavings that schedule never
samples.  PicoCheck closes the gap with small-bound systematic
exploration in the style of stateless model checkers (CHESS, dBug):

* **Choice points.**  The discrete-event simulator fires same-timestamp
  events in pinned FIFO insertion order (see :mod:`repro.sim.engine`).
  With a :class:`ControlledScheduler` installed on ``sim.scheduler``,
  every same-time ready set with more than one event becomes an
  explicit *choice point*; pick 0 reproduces the default schedule
  exactly, and a :class:`Schedule` is a sparse vector of deviations
  from it.  Re-executing from the root with the same seeds and a pick
  vector is the replay mechanism — no state snapshotting.

* **Exploration.**  DFS over deviation vectors, bounded by ``depth``
  (only the first N choice points are eligible), ``preemptions``
  (number of deviations per schedule) and ``max_runs``.  Two
  reductions keep the bound honest: a *DPOR-lite* commutation check
  skips an alternative pick when the event it would promote is provably
  independent of everything it would overtake (disjoint resumed
  processes and no shared-heap footprint conflict), and a canonical
  *run fingerprint* dedups schedules that linearize the same partial
  order.  Both are heuristic approximations — communication through
  plain Python objects is invisible to the footprint — so they only
  ever *prune re-exploration*, never the violation check of a run that
  already executed.

* **Adversarial fault placement.**  Instead of Bernoulli rates, the
  explorer enumerates *where* a bounded budget of faults lands: the
  root run doubles as an opportunity census (a deterministic
  :class:`~repro.faults.FaultPlan` counts every ``fires()`` site), and
  each placement :class:`~repro.faults.ScheduledFault` seeds its own
  deviation subtree.

* **Oracles.**  The existing machinery, run in-harness per schedule:
  KSan race reports, lockdep's hierarchy violations, IRQ inversions
  and waits under a lock, the chaos sweep's
  typed-failure-or-byte-intact delivery contract, and quiescence (the
  event queue must drain within the step budget — a live queue at the
  bound is a deadlock/livelock report).

* **Counterexamples.**  On violation, a ddmin delta-debugging shrinker
  minimizes the dense (choice, fault) vector, then replays the minimal
  schedule with a span collector installed, exporting a Perfetto trace plus a
  human-readable ``.sched`` script so the repro is one command::

      python -m repro check --replay artifacts/<scenario>_<config>.sched

The whole plane follows the repo's opt-in instrumentation pattern:
only a scenario sets ``sim.scheduler`` (default ``None``) on the
simulators it drives, the simulator hooks are gated on it (lint rule
PD012), and with no scheduler installed every experiment is
bit-identical to a build without the hooks.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..config import ALL_CONFIGS, PLANES, planes
from ..errors import ReproError
from ..experiments.chaos import MESSAGE_SIZES, MessageTrain, _chaos_params
from ..experiments.common import build_machine
from ..faults import FaultPlan, ScheduledFault
from ..guard import GuardPolicy
from ..units import KiB, USEC

#: OSConfig by its CLI/script name ("linux", "mckernel", "mckernel_hfi")
_OS_BY_NAME = {cfg.value: cfg for cfg in ALL_CONFIGS}

#: hair-trigger guard policy of the guarded scenarios: a single placed
#: fault drives a full failover/failback cycle within the smoke step
#: budget
CHECK_POLICY_KW = dict(failure_window=4, failure_threshold=1,
                       probe_successes=1, probe_backoff=50 * USEC,
                       probe_backoff_factor=2.0,
                       probe_backoff_max=400 * USEC,
                       qdepth=16, nr_congestion_on=12, nr_congestion_off=4)

#: same-time groups larger than this skip canonicalization (the greedy
#: linearization is quadratic per group); dedup just misses more, which
#: is the safe direction
_CANON_GROUP_CAP = 32


# --- schedules --------------------------------------------------------------


@dataclass(frozen=True)
class Choice:
    """One scheduling deviation: at choice point ``point`` (0-based,
    in order of occurrence), fire ready-set entry ``pick`` instead of
    the FIFO default 0."""

    point: int
    pick: int

    def __post_init__(self) -> None:
        if self.point < 0 or self.pick < 0:
            raise ReproError(f"choice indices must be >= 0: {self}")

    def describe(self) -> str:
        """The ``.sched`` script line for this choice."""
        return f"choice {self.point} {self.pick}"


@dataclass(frozen=True)
class Schedule:
    """A (schedule-choice, fault-placement) vector — the unit the
    explorer enumerates, the shrinker minimizes and the ``.sched``
    script serializes.  Choice points not named in ``choices`` take the
    FIFO default, so the empty schedule is the uncontrolled run."""

    choices: Tuple[Choice, ...] = ()
    faults: Tuple[ScheduledFault, ...] = ()

    @classmethod
    def empty(cls) -> "Schedule":
        return cls()

    @property
    def size(self) -> int:
        """Shrinker metric: total vector length."""
        return len(self.choices) + len(self.faults)

    def pick_map(self) -> Dict[int, int]:
        """choice-point index -> pick override."""
        return {c.point: c.pick for c in self.choices}

    def describe(self) -> str:
        """One-line human summary of the whole vector."""
        parts = [c.describe() for c in self.choices]
        parts.extend(f"fault {f.describe()}" for f in self.faults)
        return "; ".join(parts) if parts else "default schedule"


@dataclass(frozen=True)
class ChoicePoint:
    """One recorded same-time ready set with more than one event."""

    index: int                     #: 0-based occurrence order
    time: float                    #: simulated time of the ready set
    ready_seqs: Tuple[int, ...]    #: event heap ``seq`` keys, FIFO order
    pick: int                      #: the entry that fired
    step_index: int                #: index of the fired step in the trace

    @property
    def n_ready(self) -> int:
        return len(self.ready_seqs)


class _StepRecord:
    """Footprint of one executed simulator step: which processes it
    resumed and which shared-heap words it touched.  This is the raw
    material of the independence relation."""

    __slots__ = ("when", "seq", "resumed_ids", "resumed_names",
                 "reads", "writes")

    def __init__(self, when: float, seq: int):
        self.when = when
        self.seq = seq
        #: process identity within this run (independence check)
        self.resumed_ids: Set[int] = set()
        #: stable code names (fingerprint labels, comparable across runs)
        self.resumed_names: Set[str] = set()
        self.reads: Set[Tuple[str, int, int]] = set()
        self.writes: Set[Tuple[str, int, int]] = set()


class ControlledScheduler:
    """The explorer's hook object: install on ``sim.scheduler`` and as
    a heap monitor (``heap.add_monitor``) on every shared heap.

    As the simulator's scheduler it turns same-time ready sets into
    recorded choice points, answering each with the schedule's override
    (default 0 = FIFO).  As a heap monitor it records per-step
    read/write footprints; :meth:`on_process_resumed` records which
    processes a step resumed.  Together those give the independence
    relation behind the DPOR-lite reduction and the run fingerprint.

    An override naming a pick the replayed run no longer offers (the
    shrinker probes sub-vectors whose executions diverge) falls back to
    the FIFO default and is counted in ``divergences`` rather than
    raising: the oracle verdict of the run that actually executed is
    what the shrinker needs.
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self._overrides = schedule.pick_map()
        self.choice_points: List[ChoicePoint] = []
        self.steps: List[_StepRecord] = []
        self.divergences = 0
        self._current: Optional[_StepRecord] = None

    # -- simulator scheduler protocol ------------------------------------

    def choose_ready(self, when: float, ready: Sequence[tuple]) -> int:
        """Record the choice point and return the (possibly overridden)
        pick; an override the ready set no longer offers degrades to the
        FIFO default and counts as a divergence."""
        index = len(self.choice_points)
        pick = self._overrides.get(index, 0)
        if pick >= len(ready):
            self.divergences += 1
            pick = 0
        self.choice_points.append(ChoicePoint(
            index=index, time=when,
            ready_seqs=tuple(entry[1] for entry in ready),
            pick=pick, step_index=len(self.steps)))
        if PLANES.trace is not None:
            # counterexample replays carry the choice points as instant
            # markers so the Perfetto view shows *where* the schedule
            # deviated from FIFO
            PLANES.trace.complete_span(
                f"choice[{index}] pick {pick}/{len(ready)}",
                "check/scheduler", when, when, cat="check",
                args={"point": index, "pick": pick,
                      "ready": len(ready),
                      "deviation": pick != 0})
        return pick

    def on_step_begin(self, when: float, seq: int, event: object) -> None:
        """Open the footprint record for the step about to execute."""
        self._current = _StepRecord(when, seq)
        self.steps.append(self._current)

    def on_step_end(self) -> None:
        """Close the current step record."""
        self._current = None

    def on_process_resumed(self, process: object) -> None:
        """Tag the current step with the resumed process (identity and
        generator qualname, for labels and independence)."""
        if self._current is None:  # pragma: no cover - defensive
            return
        gen = getattr(process, "_gen", None)
        code = getattr(gen, "gi_code", None)
        name = getattr(code, "co_qualname",
                       getattr(code, "co_name", "process"))
        self._current.resumed_ids.add(id(process))
        self._current.resumed_names.add(name)

    # -- heap monitor protocol -------------------------------------------
    # Only on_access matters; the rest are explicit no-ops because a heap
    # with a sole monitor calls it directly (no fan to skip the hooks).

    def on_access(self, kind: str, addr: int, size: int, heap) -> None:
        """Accumulate the executing step's read/write heap footprint."""
        if self._current is None:
            return
        word = (heap.name, addr, size)
        if kind == "write":
            self._current.writes.add(word)
        else:
            self._current.reads.add(word)

    def annotate(self, *args, **kwargs) -> None:
        """No-op: kernel/label annotations are KSan's concern."""

    def on_lock_acquired(self, *args, **kwargs) -> None:
        """No-op: lock events are KSan's and lockdep's concern."""

    def on_lock_released(self, *args, **kwargs) -> None:
        """No-op: lock events are KSan's and lockdep's concern."""


# --- independence, fingerprints, reduction ----------------------------------


def _dependent(a: _StepRecord, b: _StepRecord) -> bool:
    """Conservative step dependence: steps that resumed no process at
    all (bare callbacks — invisible to the footprint) are dependent
    with everything; otherwise dependence is a shared resumed process
    or a write/access conflict on a shared-heap word."""
    if not a.resumed_ids or not b.resumed_ids:
        return True
    if a.resumed_ids & b.resumed_ids:
        return True
    if a.writes & (b.reads | b.writes):
        return True
    if b.writes & a.reads:
        return True
    return False


def _step_label(step: _StepRecord) -> Tuple:
    """A stable, execution-order-free label for one step."""
    digest = hashlib.sha1(
        (repr(sorted(step.reads)) + "|"
         + repr(sorted(step.writes))).encode()).hexdigest()[:12]
    return (tuple(sorted(step.resumed_names)), digest)


def _canonical_group(group: List[_StepRecord]) -> List[Tuple]:
    """Greedy minimal-label linearization of one same-time group,
    respecting the dependence partial order — two runs that interleave
    the same independent steps differently canonicalize identically."""
    if len(group) > _CANON_GROUP_CAP:
        return [_step_label(s) for s in group]
    labels = [_step_label(s) for s in group]
    order: List[Tuple] = []
    remaining = list(range(len(group)))
    while remaining:
        best = None
        for i in remaining:
            if any(j < i and _dependent(group[j], group[i])
                   for j in remaining):
                continue  # a dependent predecessor must go first
            if best is None or labels[i] < labels[best]:
                best = i
        if best is None:  # pragma: no cover - cycle-free by construction
            best = remaining[0]
        order.append(labels[best])
        remaining.remove(best)
    return order


def run_fingerprint(steps: Sequence[_StepRecord]) -> str:
    """Canonical hash of a run: per-time-group minimal linearizations,
    concatenated in time order.  Schedules that merely permute provably
    independent same-time steps collide here and are deduped; any
    imprecision makes fingerprints *differ*, which only costs re-runs."""
    h = hashlib.sha256()
    group: List[_StepRecord] = []
    when: Optional[float] = None
    for step in steps:
        if when is not None and step.when != when:
            h.update(repr((when, _canonical_group(group))).encode())
            group = []
        when = step.when
        group.append(step)
    if group:
        h.update(repr((when, _canonical_group(group))).encode())
    return h.hexdigest()


def _commutes(result: "RunResult", cp: ChoicePoint, alt_seq: int) -> bool:
    """DPOR-lite: would picking ``alt_seq`` at ``cp`` reach a state the
    explored run already visited?  True when the step that executed
    ``alt_seq`` later in this run is independent of every step it would
    overtake — promoting it to the front of that block commutes."""
    steps = result.step_records
    j = None
    for k in range(cp.step_index, len(steps)):
        if steps[k].seq == alt_seq:
            j = k
            break
    if j is None:
        return False  # the event never fired here; cannot prove anything
    for k in range(cp.step_index, j):
        if _dependent(steps[k], steps[j]):
            return False
    return True


# --- one run ----------------------------------------------------------------


@dataclass
class RunResult:
    """Everything the explorer needs from one executed schedule."""

    schedule: Schedule             #: the sparse vector as requested
    violations: List[str]
    steps: int
    quiesced: bool
    choice_points: List[ChoicePoint]
    step_records: List[_StepRecord]
    fingerprint: str
    census: Dict[str, int]         #: fault-point -> opportunity count
    divergences: int

    @property
    def dense(self) -> Schedule:
        """The *dense* schedule: every recorded choice point with the
        pick actually made, explicit zeros included.  This is the
        "first violating schedule" the shrinker starts from — and the
        baseline the minimal counterexample must be strictly smaller
        than."""
        return Schedule(
            choices=tuple(Choice(cp.index, cp.pick)
                          for cp in self.choice_points),
            faults=self.schedule.faults)


def _drive(sim, step_budget: int) -> Tuple[int, bool]:
    """Step the simulator until it quiesces or the budget runs out."""
    steps = 0
    while sim.peek() != float("inf"):
        if steps >= step_budget:
            return steps, False
        sim.step()
        steps += 1
    return steps, True


def execute_run(scenario, config: str, schedule: Schedule, bounds: "Bounds",
                collector=None) -> RunResult:
    """Execute one schedule of ``scenario`` under the full oracle set.

    Installs the planes of a check run (KSan, lockdep, a deterministic
    fault plan carrying the schedule's placements, and ``collector``
    when given), hands the scenario a fresh harness, and restores every
    slot on the way out so check runs compose with the rest of the test
    suite.
    """
    with planes(ksan=[], lockdep=[], trace=collector,
                faults=FaultPlan.placed(*schedule.faults)):
        return scenario.run(config, schedule, bounds)


def make_result(scheduler: ControlledScheduler, schedule: Schedule,
                violations: List[str], steps: int, quiesced: bool,
                census: Optional[Dict[str, int]] = None) -> RunResult:
    """Assemble a :class:`RunResult` from a finished harness (shared by
    every scenario implementation)."""
    return RunResult(
        schedule=schedule, violations=violations, steps=steps,
        quiesced=quiesced, choice_points=scheduler.choice_points,
        step_records=scheduler.steps,
        fingerprint=run_fingerprint(scheduler.steps),
        census=dict(census or {}), divergences=scheduler.divergences)


def _quiescence_violation(bounds: "Bounds") -> str:
    return (f"no quiescence: event queue still live after "
            f"{bounds.step_budget} steps (deadlock/livelock at bound)")


def install_scheduler(machine, schedule: Schedule) -> ControlledScheduler:
    """Put ``machine`` under a :class:`ControlledScheduler` for
    ``schedule``: its simulator and every node heap."""
    scheduler = ControlledScheduler(schedule)
    machine.sim.scheduler = scheduler
    for mnode in machine.nodes:
        mnode.node.kheap.add_monitor(scheduler)
    return scheduler


def judge_run(machine, scheduler: ControlledScheduler, bounds: "Bounds",
              contract: Callable[[], List[str]]) -> RunResult:
    """Drive ``machine`` until it quiesces or hits the step bound, then
    build the :class:`RunResult` from the scenario's ``contract`` (asked
    only of a run that quiesced), ``machine.oracle_violations()`` and the
    fault census."""
    steps, quiesced = _drive(machine.sim, bounds.step_budget)
    violations = contract() if quiesced else [_quiescence_violation(bounds)]
    violations.extend(machine.oracle_violations())
    census = (machine.injector.occurrences
              if machine.injector is not None else {})
    return make_result(scheduler, scheduler.schedule, violations, steps,
                       quiesced, census)


# --- scenarios --------------------------------------------------------------


class PingpongScenario:
    """The fig4-class workload: a two-node
    :class:`~repro.experiments.chaos.MessageTrain` carrying one message
    per protocol regime (eager PIO, eager SDMA, rendezvous) over a
    2-engine SDMA pool, checked for byte-intact-or-typed-error delivery
    on top of quiescence and the machine's oracle sweep (KSan, lockdep,
    and the guard FSMs when a policy is set).

    The class attributes below are the scenario's data; a subclass that
    changes only them is another scenario (:class:`GuardBreakerScenario`).
    """

    name = "pingpong"
    description = "two-node fig4-class send/recv, one message per regime"
    configs = tuple(cfg.value for cfg in ALL_CONFIGS)
    expect_violation = False
    #: the train's tag and message sizes
    tag = "check"
    sizes: Tuple[int, ...] = MESSAGE_SIZES
    sdma_engines = 2
    #: :class:`~repro.guard.GuardPolicy` keywords, or ``None`` unguarded
    policy_kw: Optional[Dict[str, object]] = None

    def run(self, config: str, schedule: Schedule,
            bounds: "Bounds") -> RunResult:
        """One controlled execution of the message train on the named
        OS config, judged by the delivery contract and every oracle."""
        policy = (GuardPolicy(**self.policy_kw)
                  if self.policy_kw is not None else None)
        with planes(guard=policy):
            machine = build_machine(2, _OS_BY_NAME[config],
                                    params=_chaos_params(self.sdma_engines))
            scheduler = install_scheduler(machine, schedule)
            train = MessageTrain(machine, self.tag, self.sizes)
            return judge_run(machine, scheduler, bounds,
                             lambda: train.violations(
                                 machine.os_config.label))


class GuardBreakerScenario(PingpongScenario):
    """Breaker FSM legality under adversarial schedules and faults: the
    ping-pong train on one guarded SDMA engine with the hair-trigger
    :data:`CHECK_POLICY_KW`, so every placed ``sdma.desc_error`` /
    ``sdma.engine_halt`` walks the breaker around the full CLOSED ->
    OPEN -> PROBING -> CLOSED cycle.  Every message is eager-SDMA sized:
    each one crosses the guarded writev fast path (PIO would bypass the
    breaker entirely)."""

    name = "guard-breaker"
    description = ("guarded single-engine message train; breaker FSM "
                   "legality under adversarial fault placement")
    configs = ("mckernel_hfi",)
    tag = "guard"
    sizes = (96 * KiB,) * 5
    sdma_engines = 1
    policy_kw = CHECK_POLICY_KW


def get_scenarios() -> Dict[str, object]:
    """The scenario registry (fixtures imported lazily to keep the
    explorer importable without the test rigs)."""
    from .check_fixtures import FlagRaceScenario
    from .check_pxd import PxdFallbackScenario
    scenarios = {}
    for scenario in (PingpongScenario(), FlagRaceScenario(),
                     GuardBreakerScenario(), PxdFallbackScenario()):
        scenarios[scenario.name] = scenario
    return scenarios


# --- exploration ------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """The exploration bound: what "exhaustive" means for one run."""

    depth: int            #: max post-reduction deviations pushed per run
    preemptions: int      #: max deviations per schedule
    faults: int           #: fault-placement budget per schedule (0 or 1)
    occ_cap: int          #: max occurrence index enumerated per fault point
    max_runs: int         #: hard cap on executions per config
    step_budget: int      #: quiescence bound per run

    def describe(self) -> str:
        """One-line summary for reports and script headers."""
        return (f"depth={self.depth} preemptions={self.preemptions} "
                f"faults={self.faults} occ-cap={self.occ_cap} "
                f"max-runs={self.max_runs} step-budget={self.step_budget}")


SMOKE_BOUNDS = Bounds(depth=6, preemptions=1, faults=1, occ_cap=1,
                      max_runs=200, step_budget=400_000)
FULL_BOUNDS = Bounds(depth=32, preemptions=2, faults=1, occ_cap=2,
                     max_runs=1000, step_budget=800_000)


@dataclass
class ConfigOutcome:
    """Exploration result for one OS configuration (or rig)."""

    config: str
    runs: int = 0
    explored: int = 0
    deduped: int = 0
    reduced: int = 0
    root_choice_points: int = 0
    exhausted: bool = False
    skipped: bool = False
    violation: Optional[str] = None
    first_schedule: Optional[Schedule] = None  #: dense, at violation
    minimal: Optional[Schedule] = None         #: after shrinking
    shrink_runs: int = 0
    sched_path: Optional[str] = None
    trace_path: Optional[str] = None


def explore_config(scenario, config: str, bounds: Bounds) -> ConfigOutcome:
    """Bounded DFS over (choice, fault) vectors for one configuration.

    Returns at the first violation (the counterexample is the
    deliverable) with the dense violating schedule attached; otherwise
    reports explored/deduped/reduced counts and whether the frontier
    was exhausted within ``max_runs``.
    """
    out = ConfigOutcome(config=config)

    def execute(schedule: Schedule) -> RunResult:
        out.runs += 1
        return execute_run(scenario, config, schedule, bounds)

    root = execute(Schedule.empty())
    out.explored += 1
    out.root_choice_points = len(root.choice_points)
    if root.violations:
        out.violation = "\n".join(root.violations)
        out.first_schedule = root.dense
        return out

    seen = {root.fingerprint}
    stack: List[Schedule] = []

    def expand(schedule: Schedule, result: RunResult) -> None:
        """Push this run's eligible deviations (DFS order: earliest
        choice point explored first, so append in reverse).

        ``depth`` caps the deviations pushed per run *after* reduction:
        the early choice points of a real workload are commuting
        process-startup events the DPOR check prunes wholesale, so an
        index-based depth bound would never reach the protocol-phase
        interleavings the checker exists for.
        """
        if len(schedule.choices) >= bounds.preemptions:
            return
        last = max((c.point for c in schedule.choices), default=-1)
        children: List[Schedule] = []
        for cp in result.choice_points:
            if cp.index <= last:
                continue
            for pick in range(1, cp.n_ready):
                if _commutes(result, cp, cp.ready_seqs[pick]):
                    out.reduced += 1
                    continue
                children.append(Schedule(
                    choices=schedule.choices + (Choice(cp.index, pick),),
                    faults=schedule.faults))
            if len(children) >= bounds.depth:
                break
        stack.extend(reversed(children[:bounds.depth]))

    expand(Schedule.empty(), root)
    # adversarial fault placement: each placement from the census seeds
    # its own deviation subtree
    if bounds.faults >= 1:
        for point in sorted(root.census, reverse=True):
            cap = min(root.census[point], bounds.occ_cap)
            for occ in reversed(range(cap)):
                stack.append(Schedule(
                    faults=(ScheduledFault(point, occ),)))

    while stack:
        if out.runs >= bounds.max_runs:
            return out  # bound hit: frontier not exhausted
        schedule = stack.pop()
        result = execute(schedule)
        out.explored += 1
        if result.violations:
            out.violation = "\n".join(result.violations)
            out.first_schedule = result.dense
            return out
        if result.fingerprint in seen:
            out.deduped += 1
            continue
        seen.add(result.fingerprint)
        expand(schedule, result)
    out.exhausted = True
    return out


# --- counterexample shrinking -----------------------------------------------


def shrink(scenario, config: str, dense: Schedule,
           bounds: Bounds) -> Tuple[Schedule, int]:
    """ddmin over the dense (choice, fault) vector: the classic
    delta-debugging loop (Zeller & Hildebrandt), with "test fails" =
    "re-executing the sub-vector still violates an oracle".  Returns
    the 1-minimal schedule and the number of replays spent."""
    elements: List[Tuple[str, object]] = \
        [("choice", c) for c in dense.choices] \
        + [("fault", f) for f in dense.faults]
    runs = 0

    def build(subset: Sequence[Tuple[str, object]]) -> Schedule:
        return Schedule(
            choices=tuple(e for kind, e in subset if kind == "choice"),
            faults=tuple(e for kind, e in subset if kind == "fault"))

    def violates(subset: Sequence[Tuple[str, object]]) -> bool:
        nonlocal runs
        runs += 1
        return bool(execute_run(scenario, config, build(subset),
                                bounds).violations)

    current = list(elements)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            trial = current[:start] + current[start + chunk:]
            if trial and violates(trial):
                current = trial
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(granularity * 2, len(current))
    return build(current), runs


# --- schedule scripts and counterexample export -----------------------------


def write_schedule_script(path: str, scenario_name: str, config: str,
                          schedule: Schedule, note: str = "") -> str:
    """Serialize a schedule as the human-readable ``.sched`` script."""
    lines = ["# PicoCheck counterexample schedule"]
    if note:
        lines.append(f"# {note}")
    lines.append(f"# replay: python -m repro check --replay {path}")
    lines.append(f"scenario: {scenario_name}")
    lines.append(f"config: {config}")
    for choice in schedule.choices:
        lines.append(choice.describe())
    for fault in schedule.faults:
        lines.append(f"fault {fault.describe()}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def parse_schedule_script(text: str) -> Tuple[str, str, Schedule]:
    """Parse a ``.sched`` script back into (scenario, config, schedule)."""
    scenario_name = config = None
    choices: List[Choice] = []
    faults: List[ScheduledFault] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("scenario:"):
            scenario_name = line.split(":", 1)[1].strip()
        elif line.startswith("config:"):
            config = line.split(":", 1)[1].strip()
        elif line.startswith("choice "):
            parts = line.split()
            if len(parts) != 3 or not all(p.isdecimal() for p in parts[1:]):
                raise ReproError(f"line {lineno}: expected "
                                 f"'choice <point> <pick>', got {line!r}")
            choices.append(Choice(int(parts[1]), int(parts[2])))
        elif line.startswith("fault "):
            spec = line.split(None, 1)[1]
            point, _, occ = spec.partition("@")
            if not occ.strip().isdecimal():
                raise ReproError(f"line {lineno}: expected "
                                 f"'fault <point>@<occurrence>', got {line!r}")
            faults.append(ScheduledFault(point.strip(), int(occ)))
        else:
            raise ReproError(f"line {lineno}: unrecognized schedule "
                             f"directive {line!r}")
    if scenario_name is None or config is None:
        raise ReproError("schedule script must name 'scenario:' and "
                         "'config:'")
    return scenario_name, config, Schedule(tuple(choices), tuple(faults))


def export_counterexample(scenario, config: str, schedule: Schedule,
                          bounds: Bounds, out_dir: str,
                          note: str = "") -> Tuple[str, str, RunResult]:
    """Replay ``schedule`` with tracing on and write both artifacts:
    the ``.sched`` script and the Perfetto/Chrome trace JSON."""
    from ..obs.export import write_chrome_trace
    from ..obs.spans import SpanCollector

    os.makedirs(out_dir, exist_ok=True)
    collector = SpanCollector()
    result = execute_run(scenario, config, schedule, bounds,
                         collector=collector)
    stem = os.path.join(out_dir, f"{scenario.name}_{config}")
    sched_path = write_schedule_script(
        f"{stem}.sched", scenario.name, config, schedule, note=note)
    trace_path = write_chrome_trace(collector, f"{stem}.trace.json")
    return sched_path, trace_path, result


# --- the check driver -------------------------------------------------------


@dataclass
class CheckResult:
    """The full exploration: per-config outcomes plus a render method."""

    scenario_name: str
    bounds: Bounds
    outcomes: List[ConfigOutcome] = field(default_factory=list)
    expect_violation: bool = False

    @property
    def violation_found(self) -> bool:
        return any(o.violation is not None for o in self.outcomes)

    @property
    def ok(self) -> bool:
        """Did the exploration match the scenario's expectation?"""
        return self.violation_found == self.expect_violation

    def render(self) -> str:
        """Human-readable report: per-config table, violation detail,
        artifact paths and the final verdict."""
        lines = [f"PicoCheck: scenario '{self.scenario_name}'",
                 f"  bounds: {self.bounds.describe()}", "",
                 "config          runs  explored  deduped  reduced  "
                 "root-cps  frontier"]
        for o in self.outcomes:
            if o.skipped:
                lines.append(f"{o.config:<15} skipped (violation found in "
                             f"an earlier config)")
                continue
            frontier = ("violation" if o.violation is not None
                        else "exhausted" if o.exhausted
                        else "run-capped")
            lines.append(
                f"{o.config:<15} {o.runs:>5}  {o.explored:>8}  "
                f"{o.deduped:>7}  {o.reduced:>7}  "
                f"{o.root_choice_points:>8}  {frontier}")
        lines.append("")
        for o in self.outcomes:
            if o.violation is None:
                continue
            lines.append(f"VIOLATION in config {o.config} after "
                         f"{o.explored} schedule(s):")
            lines.extend(f"  {line}" for line in o.violation.splitlines())
            if o.first_schedule is not None:
                lines.append(
                    f"first violating schedule: "
                    f"{len(o.first_schedule.choices)} choice(s), "
                    f"{len(o.first_schedule.faults)} fault(s)")
            if o.minimal is not None:
                lines.append(
                    f"shrunk counterexample ({o.shrink_runs} replays): "
                    f"{len(o.minimal.choices)} choice(s), "
                    f"{len(o.minimal.faults)} fault(s) — "
                    f"{o.minimal.describe()}")
            if o.sched_path:
                lines.append(f"  schedule: {o.sched_path}")
            if o.trace_path:
                lines.append(f"  trace:    {o.trace_path}")
            if o.sched_path:
                lines.append(f"  replay:   python -m repro check "
                             f"--replay {o.sched_path}")
        if not self.violation_found:
            lines.append("verdict: no violations within the bound")
        elif self.expect_violation:
            lines.append("verdict: seeded violation found and shrunk "
                         "(as expected for this fixture)")
        else:
            lines.append("verdict: VIOLATION — see the counterexample "
                         "artifacts above")
        return "\n".join(lines)


def run_check(scenario_name: str, bounds: Optional[Bounds] = None,
              configs: Optional[Sequence[str]] = None,
              out_dir: str = "check_artifacts") -> CheckResult:
    """Explore every configuration of a scenario; on violation, shrink
    the dense schedule, export the artifacts, and stop."""
    scenarios = get_scenarios()
    if scenario_name not in scenarios:
        raise ReproError(f"unknown check scenario {scenario_name!r}; "
                         f"choose from {', '.join(sorted(scenarios))}")
    scenario = scenarios[scenario_name]
    if bounds is None:
        bounds = FULL_BOUNDS
    if configs is None:
        configs = scenario.configs
    else:
        _require_configs(scenario, configs)
    result = CheckResult(scenario_name=scenario_name, bounds=bounds,
                         expect_violation=scenario.expect_violation)
    stop = False
    for config in configs:
        if stop:
            result.outcomes.append(ConfigOutcome(config=config,
                                                 skipped=True))
            continue
        outcome = explore_config(scenario, config, bounds)
        result.outcomes.append(outcome)
        if outcome.violation is not None:
            minimal, shrink_runs = shrink(scenario, config,
                                          outcome.first_schedule, bounds)
            outcome.minimal = minimal
            outcome.shrink_runs = shrink_runs
            outcome.runs += shrink_runs
            note = (f"minimal after ddmin: {minimal.size} of "
                    f"{outcome.first_schedule.size} vector entries")
            outcome.sched_path, outcome.trace_path, _ = \
                export_counterexample(scenario, config, minimal, bounds,
                                      out_dir, note=note)
            stop = True
    return result


def _require_configs(scenario, configs: Sequence[str]) -> None:
    """Raise :class:`ReproError` naming each of ``configs`` that
    ``scenario`` does not run."""
    unknown = [c for c in configs if c not in scenario.configs]
    if unknown:
        raise ReproError(f"scenario {scenario.name!r} has no config(s) "
                         f"{', '.join(unknown)}; choose from "
                         f"{', '.join(scenario.configs)}")


def load_schedule(path: str) -> Tuple[object, str, Schedule]:
    """Read a ``.sched`` script into (scenario, config, schedule); a
    file that is missing, unreadable, malformed or names an unknown
    scenario or config raises :class:`ReproError`."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read schedule {path}: {exc}") from exc
    scenario_name, config, schedule = parse_schedule_script(text)
    scenarios = get_scenarios()
    if scenario_name not in scenarios:
        raise ReproError(f"schedule names unknown scenario "
                         f"{scenario_name!r}")
    _require_configs(scenarios[scenario_name], [config])
    return scenarios[scenario_name], config, schedule


def replay_schedule(path: str, out_dir: str = "check_artifacts",
                    bounds: Optional[Bounds] = None):
    """Replay a ``.sched`` script with tracing enabled; returns the
    (RunResult, trace_path) pair."""
    scenario, config, schedule = load_schedule(path)
    _sched_path, trace_path, result = export_counterexample(
        scenario, config, schedule, bounds or FULL_BOUNDS, out_dir)
    return result, trace_path


# --- CLI --------------------------------------------------------------------

_USAGE = """\
usage: python -m repro check <scenario> [--smoke] [--depth N] [--faults K]
                             [--preemptions N] [--max-runs N] [--config C]
                             [--out DIR]
       python -m repro check --replay FILE [--out DIR]
       python -m repro check --list
"""


def cmd_check(argv: List[str]) -> int:
    """Entry point for ``python -m repro check``.

    Exit codes: 0 when the exploration matches the scenario's
    expectation (clean for real workloads, violation-found for seeded
    fixtures), 1 on a mismatch, 2 on usage errors.
    """
    args = list(argv)
    if "--list" in args:
        for name, scenario in sorted(get_scenarios().items()):
            expect = ("expects a violation (seeded fixture)"
                      if scenario.expect_violation else "expects clean")
            print(f"{name:<18} {scenario.description} — {expect}")
        return 0

    def take_value(flag: str) -> Optional[str]:
        if flag not in args:
            return None
        idx = args.index(flag)
        if idx + 1 >= len(args):
            raise ReproError(f"{flag} needs a value")
        args.pop(idx)
        return args.pop(idx)

    # every usage error is one line and exit 2, found before any run
    try:
        replay = take_value("--replay")
        out_dir = take_value("--out") or "check_artifacts"
        overrides = {}
        for key in ("depth", "faults", "preemptions", "max_runs"):
            flag = "--" + key.replace("_", "-")
            value = take_value(flag)
            if value is not None and not value.isdecimal():
                raise ReproError(f"{flag} needs a non-negative integer, "
                                 f"got {value!r}")
            if value is not None:
                overrides[key] = int(value)
        config = take_value("--config")
        if replay is not None:
            load_schedule(replay)   # replay_schedule reads it again
    except ReproError as exc:
        print(exc)
        return 2
    smoke = "--smoke" in args
    args = [a for a in args if a != "--smoke"]
    unknown = [a for a in args if a.startswith("-")]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n{_USAGE}")
        return 2

    if replay is not None:
        # a replay runs the schedule's own scenario and config under
        # FULL_BOUNDS, so anything that would choose them is refused
        if args or smoke or overrides or config is not None:
            print("--replay takes no scenario, --smoke, bound or --config")
            return 2
        result, trace_path = replay_schedule(replay, out_dir=out_dir)
        print(f"replayed {replay}: {result.steps} steps, "
              f"{len(result.choice_points)} choice points, "
              f"{result.divergences} divergences")
        print(f"trace: {trace_path}")
        if result.violations:
            print(f"violations ({len(result.violations)}):")
            for violation in result.violations:
                for line in violation.splitlines():
                    print(f"  {line}")
            return 1
        print("no violations on this schedule")
        return 0

    if not args:
        print(_USAGE)
        print("scenarios:", ", ".join(sorted(get_scenarios())))
        return 2
    scenario_name = args[0]
    if scenario_name not in get_scenarios():
        print(f"unknown check scenario {scenario_name!r}; choose from "
              f"{', '.join(sorted(get_scenarios()))}")
        return 2
    bounds = SMOKE_BOUNDS if smoke else FULL_BOUNDS
    if overrides:
        from dataclasses import replace
        bounds = replace(bounds, **overrides)
    configs = [config] if config is not None else None
    if configs is not None:
        try:
            _require_configs(get_scenarios()[scenario_name], configs)
        except ReproError as exc:
            print(exc)
            return 2
    result = run_check(scenario_name, bounds=bounds, configs=configs,
                       out_dir=out_dir)
    print(result.render())
    return 0 if result.ok else 1
