"""The macro application simulator: evaluate an AppSpec at scale.

Phases advance per-rank clocks according to the closed-form costs of
:mod:`repro.cluster.model`.  Synchronizing collectives take the max over
ranks (straggler absorption), which is where Linux noise and McKernel
offload inflation become everyone's problem.

One plan per phase per run: everything a phase costs that does not depend
on the clocks (its message costs, its wall, a collective's cost, the
profile rows it adds) is computed once per :func:`simulate_app` call, so
the iteration loop only advances clocks and adds precomputed values.

One clock for synchronized ranks: the per-rank clock is a single float
while every rank holds the same time (from ``MPI_Init`` to the first
compute, after every synchronizing collective, and through sweep,
memchurn, file-I/O and halo phases on a flat clock).  It becomes an
``R``-entry numpy array only where ranks differ: compute imbalance, Linux
noise and halo spread.  Both forms give the same bits (DESIGN.md §4,
"Macro model: one plan per run, one clock for synchronized ranks").

Outputs per run: mean runtime, an ``I_MPI_STATS``-style per-call profile
(Table 1) and a kernel-side per-syscall profile (Figures 8-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..apps.base import (AppSpec, CollectivePhase, FileIO, HaloExchange,
                         MemChurn, SweepPhase)
from ..config import OSConfig
from ..mpi.stats import MpiStats, StatRow
from ..params import Params, default_params
from ..sim import RngFactory
from ..units import USEC
from .model import CommCostModel, collective_rounds, off_node_fraction

#: MPI waits issue a nanosleep back-off roughly this often
_NANOSLEEP_PERIOD = 500 * USEC

#: per-rank clocks: one float while every rank holds the same time, else
#: one entry per rank
_Clock = Union[float, np.ndarray]


@dataclass
class MacroResult:
    """Everything one macro run produces."""

    app: str
    config: OSConfig
    n_nodes: int
    n_ranks: int
    #: mean per-rank wall-clock seconds
    runtime: float
    #: setup seconds (MPI_Init + Cart_create); CORAL figures of merit are
    #: reported on the solver loop, excluding setup
    init_seconds: float = 0.0
    #: cumulative seconds over all ranks, per MPI call (Table 1 "Time")
    mpi_time: Dict[str, float] = field(default_factory=dict)
    mpi_calls: Dict[str, int] = field(default_factory=dict)
    #: kernel-visible syscall seconds over all ranks (Figures 8-9)
    syscall_time: Dict[str, float] = field(default_factory=dict)
    syscall_count: Dict[str, int] = field(default_factory=dict)

    @property
    def loop_runtime(self) -> float:
        """Solver-loop seconds (runtime minus setup)."""
        return self.runtime - self.init_seconds

    @property
    def figure_of_merit(self) -> float:
        """Weak scaling: work per unit solver-loop time (CORAL FOMs
        exclude initialization); higher is better."""
        return 1.0 / self.loop_runtime

    @property
    def total_mpi_time(self) -> float:
        return sum(self.mpi_time.values())

    @property
    def total_runtime(self) -> float:
        return self.runtime * self.n_ranks

    @property
    def total_kernel_time(self) -> float:
        return sum(self.syscall_time.values())

    def stats(self) -> MpiStats:
        """The profile as an :class:`MpiStats` (Table 1 rendering)."""
        out = MpiStats()
        out._time = dict(self.mpi_time)
        out._calls = dict(self.mpi_calls)
        out._runtime = self.total_runtime
        return out

    def top_calls(self, n: int = 5) -> List[StatRow]:
        """Top-n MPI calls by cumulative time."""
        return self.stats().top(n)

    def syscall_shares(self) -> Dict[str, float]:
        """Per-syscall share of kernel time, sorted descending."""
        total = self.total_kernel_time or 1.0
        return {name: t / total for name, t in
                sorted(self.syscall_time.items(), key=lambda kv: -kv[1])}


#: one add to a result's profile: (seconds dict, key, seconds, counts dict
#: or None to leave the count alone, count)
_Row = Tuple[Dict[str, float], str, float, Optional[Dict[str, int]], int]


class _Profile:
    """Builds the rows that add to one run's profile dicts."""

    def __init__(self, result: MacroResult):
        self.result = result

    def mpi(self, call: str, total_seconds: float, calls: int = 0) -> _Row:
        r = self.result
        return (r.mpi_time, call, float(total_seconds),
                r.mpi_calls if calls else None, calls)

    def sys(self, name: str, total_seconds: float, count: int) -> _Row:
        r = self.result
        return (r.syscall_time, name, float(total_seconds),
                r.syscall_count, count)


#: a phase's plan: advances the clock by one iteration of the phase and adds
#: its profile rows
_Plan = Callable[[_Clock], _Clock]


def _add(rows: Sequence[_Row]) -> None:
    """Add ``rows`` in order: each key gets its adds one at a time, in the
    order the run makes them, and enters its dict on its first add."""
    for times, key, seconds, counts, n in rows:
        times[key] = times.get(key, 0.0) + seconds
        if counts is not None:
            counts[key] = counts.get(key, 0) + n


def _noise_extra(rng: np.random.Generator, params: Params,
                 dt: float, n: int) -> np.ndarray:
    """Vectorized residual-noise sample for ``n`` Linux app cores over an
    interval of ``dt`` seconds each (mirrors linux.noise.NoiseModel)."""
    p = params.noise
    extra = np.full(n, dt * p.tick_rate_hz * p.tick_cost)
    bursts = rng.poisson(dt * p.burst_rate_hz, size=n)
    hot = np.flatnonzero(bursts)
    if hot.size:
        mu = math.log(p.burst_log_median)
        extra[hot] += (bursts[hot]
                       * np.exp(rng.normal(mu, p.burst_log_sigma,
                                           size=hot.size)))
    return extra


def _burst_tail_mean(params: Params) -> float:
    p = params.noise
    return p.burst_log_median * math.exp(p.burst_log_sigma ** 2 / 2)


def simulate_app(spec: AppSpec, n_nodes: int, config: OSConfig,
                 params: Optional[Params] = None,
                 iterations: Optional[int] = None) -> MacroResult:
    """Evaluate ``spec`` on ``n_nodes`` under ``config``."""
    spec.validate()
    if n_nodes < spec.min_nodes:
        raise ValueError(f"{spec.name} needs >= {spec.min_nodes} nodes")
    iters = iterations if iterations is not None else spec.iterations
    if iters < 1:
        raise ValueError(f"{spec.name} needs >= 1 iteration, got {iters}")
    R = spec.ranks_for(n_nodes)
    for phase in spec.phases:
        if isinstance(phase, CollectivePhase) and phase.scope > R:
            raise ValueError(
                f"{spec.name}: {phase.kind} scope {phase.scope} exceeds "
                f"the {R} ranks on {n_nodes} nodes")
    params = params if params is not None else default_params()
    model = CommCostModel(params, config)
    rpn = spec.ranks_per_node
    cpus = params.node.os_cores
    noisy = config.noisy_app_cores
    multik = config.is_multikernel
    rng = RngFactory(params.seed).stream(
        "macro", spec.name, config.value, n_nodes)

    result = MacroResult(app=spec.name, config=config, n_nodes=n_nodes,
                         n_ranks=R, runtime=0.0)
    prof = _Profile(result)
    lag: _Clock = 0.0  # absolute per-rank clock

    # ---------------- MPI_Init ------------------------------------------------
    # PMI startup staggers rank initialization; the storm is milder
    # than a bulk-synchronous phase
    init_depth = (rpn / (2.0 * cpus)) if multik else 0.0
    device_calls = model.init_times(depth_per_cpu=max(1.0, init_depth))
    own = 0.0
    demand = 0.0
    for name, (visible, dem) in device_calls.items():
        n_calls = 3 if name == "mmap" else 1   # PIO bufs, rcvhdrq, events
        own += n_calls * visible
        demand += n_calls * dem
        _add((prof.sys(name, R * n_calls * visible, R * n_calls),))
    pair = model.mmap_times(24 * 1024 * 1024)   # scratch arena
    own += pair["mmap"][0]
    _add((prof.sys("mmap", R * pair["mmap"][0], R),))
    init_wall = max(own, rpn * demand / cpus)
    if config.has_picodriver:
        init_wall += params.syscall.pico_init_cost
    lag += init_wall
    _add((prof.mpi("Init", R * init_wall, R),))
    result.init_seconds = init_wall

    # ---------------- MPI_Cart_create (HACC) -----------------------------------
    if spec.uses_cart:
        reorder = (spec.cart_coeff * R * max(1.0, math.log2(R))
                   * model.tlb_factor())
        if noisy:
            reorder += float(_noise_extra(rng, params, reorder, 1)[0])
        ag_rounds = collective_rounds("allgather", R)
        small = model.message(64, depth_per_cpu=1.0)
        cart = reorder + ag_rounds * (small.latency
                                      + params.psm.mq_overhead)
        lag += cart
        _add((prof.mpi("Cart_create", R * cart, R),))
        result.init_seconds += cart

    # ---------------- iterations -----------------------------------------------
    f_halo = off_node_fraction(n_nodes)
    f_sweep = off_node_fraction(n_nodes, base=0.55, growth=0.05)
    plans = []
    for phase in spec.phases:
        if isinstance(phase, HaloExchange):
            plans.append(_halo_plan(prof, model, phase, f_halo, rpn, R,
                                    cpus, multik))
        elif isinstance(phase, SweepPhase):
            plans.append(_sweep_plan(prof, model, phase, f_sweep, rpn, R,
                                     cpus, multik, noisy, params))
        elif isinstance(phase, CollectivePhase):
            plans.append(_collective_plan(prof, model, phase, rpn, R, cpus,
                                          noisy, params))
        elif isinstance(phase, MemChurn):
            plans.append(_memchurn_plan(prof, model, phase, rpn, R, cpus,
                                        multik))
        elif isinstance(phase, FileIO):
            plans.append(_fileio_plan(prof, model, phase, rpn, R, cpus,
                                      multik))
        else:  # pragma: no cover
            raise ValueError(f"unknown phase {phase!r}")

    compute = spec.compute_seconds * (spec.lwk_compute_factor
                                      if multik else 1.0)
    sigma = math.sqrt(math.log(1 + spec.imbalance_cv ** 2))
    for _it in range(iters):
        t: _Clock = compute
        if spec.imbalance_cv > 0:
            # draws * compute == np.full(R, compute) * draws
            t = rng.lognormal(-sigma ** 2 / 2, sigma, size=R)
            t *= compute
        if noisy:
            noise = _noise_extra(rng, params, compute, R)
            noise += t      # == t + noise
            t = noise
        lag += t
        for plan in plans:
            lag = plan(lag)

    # trailing sync: apps end with a reduction/output step
    if isinstance(lag, float):
        final, waited = lag, 0.0     # every rank already at the max
    else:
        final = float(lag.max())
        waited = float((final - lag).sum())
    _add((prof.mpi("Barrier", waited, R),))
    result.runtime = final

    # nanosleep back-offs while waiting (visible in Figures 8-9)
    wait_total = (result.mpi_time.get("Wait", 0.0)
                  + result.mpi_time.get("Barrier", 0.0))
    sleeps = int(wait_total / _NANOSLEEP_PERIOD)
    if sleeps:
        sc = params.syscall
        per = (sc.lwk_entry + sc.nanosleep_cost / 2 if multik
               else sc.linux_entry + sc.nanosleep_cost)
        _add((prof.sys("nanosleep", sleeps * per, sleeps),))
    return result


# ----------------------------------------------------------------------------
# phase plans: built once per run, run once per iteration
# ----------------------------------------------------------------------------

def _fixed_plan(rows: Tuple[_Row, ...], wall: float) -> _Plan:
    """A phase whose every iteration adds the same rows and advances every
    rank by the same wall (sweep, memchurn, file I/O): a flat clock stays
    flat."""
    def run(lag: _Clock) -> _Clock:
        _add(rows)
        lag += wall
        return lag
    return run


def _halo_plan(prof: _Profile, model: CommCostModel, phase: HaloExchange,
               f: float, rpn: int, R: int, cpus: int,
               multik: bool) -> _Plan:
    """Bulk nonblocking neighbor exchange, completed by Waitall."""
    off = phase.neighbors * f
    intra = phase.neighbors - off
    # bulk phase queue depth: one outstanding offload per rank for eager
    # sends, two (tx + rx worker) when expected receive adds TID calls
    expected = phase.msg_bytes > model.params.psm.expected_threshold
    outstanding = 2.0 if expected else 1.0
    depth = max(1.0, outstanding * rpn / cpus) if multik else 0.0
    msg = model.message(phase.msg_bytes, depth_per_cpu=depth)
    # issue time as MPI_Isend reports it (uncontended syscall entry);
    # contention-inflated completion shows up in MPI_Wait, as in Table 1
    base = model.message(phase.msg_bytes, depth_per_cpu=1.0)
    shm = model.shm_msg_time(phase.msg_bytes)
    own_issue = off * base.sender_time + intra * shm
    own_recv = off * msg.receiver_time
    # completion tail: the last message's flight time
    tail = (min(1.0, off) * msg.latency
            + (1.0 if intra > 0 else 0.0) * shm)
    node_wire = rpn * off * msg.wire
    node_demand = rpn * off * msg.node_cpu_demand
    issue_contended = off * msg.sender_time + intra * shm
    wall = max(issue_contended + own_recv + tail, node_wire,
               node_demand / cpus, own_issue)
    calls = R * phase.neighbors
    isend = prof.mpi("Isend", R * own_issue, calls)
    wait_seconds = R * max(0.0, wall - own_issue)
    # sender-side writev for sends, receiver-side ioctls for recvs
    syscalls = tuple(prof.sys(name, R * off * count * visible,
                              int(R * off) * count)
                     for name, count, visible in msg.syscalls)
    # on a flat clock every rank's spread is 0.0
    flat_rows = (isend, prof.mpi("Wait", wait_seconds, calls)) + syscalls

    def run(lag: _Clock) -> _Clock:
        for _round in range(phase.rounds):
            if isinstance(lag, float):
                _add(flat_rows)
                lag += wall
                continue
            # waitall on neighbors partially synchronizes: most of the lag
            # spread is absorbed here as Wait time (HACC's Linux profile)
            spread = lag.max() - lag
            spread *= 0.7
            wait = prof.mpi("Wait", wait_seconds + float(spread.sum()),
                            calls)
            _add((isend, wait) + syscalls)
            spread += wall      # == wall + spread
            lag += spread
        return lag
    return run


def _sweep_plan(prof: _Profile, model: CommCostModel, phase: SweepPhase,
                f: float, rpn: int, R: int, cpus: int, multik: bool,
                noisy: bool, params: Params) -> _Plan:
    """Latency-chained pipeline: stage s+1 waits on stage s delivery."""
    active = phase.active_fraction
    jobs_per_stage = rpn * active * phase.msgs_per_stage * f
    # steady state: every active rank keeps ~one offload outstanding
    depth = max(1.0, jobs_per_stage / cpus) if multik else 0.0
    msg = model.message(phase.msg_bytes, depth_per_cpu=depth)
    shm = model.shm_msg_time(phase.msg_bytes)
    stage_lat = f * msg.latency + (1 - f) * shm
    stage_wire = jobs_per_stage * msg.wire
    stage = max(stage_lat, stage_wire)
    # node throughput bound: the OS CPUs must also drain the total demand
    demand_wall = (phase.stages * jobs_per_stage * msg.node_cpu_demand
                   / cpus)
    wall = max(phase.stages * stage, demand_wall) + phase.stages * 2e-6
    if noisy:
        # every stage is a loose synchronization across the wavefront: a
        # noise burst on any active rank stalls the next stage
        active_ranks = R * active
        p_any = min(1.0, active_ranks * params.noise.burst_rate_hz * stage)
        wall += phase.stages * p_any * _burst_tail_mean(params)
    base = model.message(phase.msg_bytes, depth_per_cpu=1.0)
    own_issue = (phase.stages * active
                 * (f * (base.sender_time + base.receiver_time)
                    + (1 - f) * shm))
    per_rank_msgs = phase.stages * active * phase.msgs_per_stage * f
    # sweeps use persistent channels (MPI_Start + MPI_Wait, the pattern
    # visible in the paper's UMT2013 Table 1 rows)
    return _fixed_plan(
        (prof.mpi("Start", R * own_issue, R * int(phase.stages * active)),
         prof.mpi("Wait", R * max(0.0, wall - own_issue)),
         prof.mpi("Request_free", R * phase.stages * active * 2e-7,
                  R * int(phase.stages * active)))
        + tuple(prof.sys(name, R * per_rank_msgs * count * visible,
                         int(R * per_rank_msgs * count))
                for name, count, visible in msg.syscalls),
        wall)


_MPI_NAMES = {"barrier": "Barrier", "allreduce": "Allreduce",
              "bcast": "Bcast", "alltoallv": "Alltoallv",
              "allgather": "Allgather", "scan": "Scan"}


def _collective_plan(prof: _Profile, model: CommCostModel,
                     phase: CollectivePhase, rpn: int, R: int, cpus: int,
                     noisy: bool, params: Params) -> _Plan:
    """Synchronize (straggler absorption) then run the collective."""
    scope = phase.scope if phase.scope else R
    multik = model.config.is_multikernel
    sdma = phase.nbytes > params.nic.pio_threshold
    if phase.kind in ("alltoallv", "allgather"):
        # bulk: every rank exchanges concurrently
        depth = max(1.0, 2.0 * rpn / cpus) if multik else 0.0
    else:
        # tree/doubling: few ranks per node send at any instant
        depth = 1.5 if multik else 0.0
    msg = model.message(max(phase.nbytes, 8),
                        depth_per_cpu=depth if sdma else 0.0)
    rounds = collective_rounds(phase.kind, scope)
    f_off = (scope - rpn) / scope if scope > rpn else 0.0
    hop = f_off * msg.latency + (1 - f_off) * model.shm_msg_time(
        max(phase.nbytes, 8))
    msgs_per_rank: float
    if phase.kind in ("alltoallv", "allgather"):
        # pairwise/ring: bandwidth- and issue-bound, rounds overlap
        node_bytes = rpn * (scope - 1) * phase.nbytes * f_off
        eff_rate = phase.nbytes / msg.wire if msg.wire else 1.0
        t_bw = node_bytes / eff_rate if eff_rate else 0.0
        t_issue = (scope - 1) * (f_off * msg.sender_time + (1 - f_off)
                                 * model.shm_msg_time(phase.nbytes))
        t_lat = rounds * (params.nic.wire_latency
                          + 2 * params.psm.mq_overhead)
        t_queue = (rpn * (scope - 1) * f_off * msg.node_cpu_demand
                   / cpus)
        cost = max(t_bw, t_issue, t_lat, t_queue)
        msgs_per_rank = (scope - 1) * f_off
    else:
        # tree/recursive doubling: latency chain of ``rounds`` hops
        cost = rounds * (hop + params.psm.mq_overhead)
        t_queue = rpn * rounds * f_off * msg.node_cpu_demand / cpus
        cost = max(cost, t_queue)
        msgs_per_rank = rounds * f_off
    if noisy and rounds:
        # straggler per round: any of R ranks bursting stalls the tree
        p_any = min(1.0, R * params.noise.burst_rate_hz * hop)
        cost += rounds * p_any * _burst_tail_mean(params)
    syscalls: Tuple[_Row, ...] = ()
    if sdma:
        syscalls = tuple(prof.sys(sname, R * msgs_per_rank * count * visible,
                                  int(R * msgs_per_rank * count))
                         for sname, count, visible in msg.syscalls)
    name = _MPI_NAMES[phase.kind]
    # on a flat clock every rank waits 0.0 and then runs for ``cost``: the
    # call's seconds are numpy's sum of R equal entries, not R * cost
    flat_rows = syscalls + (prof.mpi(name, float(np.full(R, cost).sum()),
                                     R),)

    def run(lag: _Clock) -> _Clock:
        count = phase.count
        if count > 0 and not isinstance(lag, float):
            sync_at = float(lag.max())
            # the clock array is the loop's own: reuse it for the waits
            np.subtract(sync_at, lag, out=lag)
            lag += cost
            _add(syscalls + (prof.mpi(name, float(lag.sum()), R),))
            lag = sync_at + cost
            count -= 1
        # the rest start from a flat clock
        _add(flat_rows * count)
        for _c in range(count):
            lag += cost
        return lag
    return run


def _memchurn_plan(prof: _Profile, model: CommCostModel, phase: MemChurn,
                   rpn: int, R: int, cpus: int,
                   multik: bool) -> _Plan:
    # churn is spread through the iteration, not bulk-synchronous
    depth = 2.0 if multik else 0.0
    pair = model.mmap_times(phase.nbytes, depth_per_cpu=depth)
    own = phase.mmaps * (pair["mmap"][0] + pair["munmap"][0])
    demand = phase.mmaps * (pair["mmap"][1] + pair["munmap"][1])
    wall = max(own, rpn * demand / cpus)
    return _fixed_plan(
        (prof.sys("mmap", R * phase.mmaps * pair["mmap"][0],
                  R * phase.mmaps),
         prof.sys("munmap", R * phase.mmaps * pair["munmap"][0],
                  R * phase.mmaps)),
        wall)


def _fileio_plan(prof: _Profile, model: CommCostModel, phase: FileIO,
                 rpn: int, R: int, cpus: int, multik: bool) -> _Plan:
    sc = model.params.syscall
    # diagnostics I/O is spread through the iteration, not bulk
    depth = 2.0 if multik else 0.0
    open_vis, open_dem = model.plain_call(sc.open_cost, depth)
    read_vis, read_dem = model.plain_call(sc.read_cost, depth)
    close_vis, close_dem = model.plain_call(sc.close_cost, depth)
    own = open_vis + phase.reads * read_vis + close_vis
    demand = open_dem + phase.reads * read_dem + close_dem
    wall = max(own, rpn * demand / cpus)
    return _fixed_plan(
        (prof.sys("open", R * open_vis, R),
         prof.sys("read", R * phase.reads * read_vis, R * phase.reads)),
        wall)
