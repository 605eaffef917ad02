"""The per-rank macro model, kept as the oracle for ``repro.cluster.run``.

``simulate_app`` runs each phase from per-run plans and keeps the per-rank
clock as one float while every rank holds the same time.  The functions
here are the model as it was before that: every rank's clock an
``R``-entry numpy array from ``MPI_Init`` on, and every phase's message
costs, walls and profile adds recomputed on every iteration.
``test_reference.py`` runs both in one process and requires equal results,
field by field and in the profile dicts' insertion order.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.apps.base import (AppSpec, CollectivePhase, FileIO, HaloExchange,
                             MemChurn, SweepPhase)
from repro.cluster.model import (CommCostModel, collective_rounds,
                                 off_node_fraction)
from repro.cluster.run import MacroResult
from repro.config import OSConfig
from repro.params import Params, default_params
from repro.sim import RngFactory
from repro.units import USEC

#: MPI waits issue a nanosleep back-off roughly this often
_NANOSLEEP_PERIOD = 500 * USEC


class _Accumulator:
    """Mutable run state."""

    def __init__(self, result: MacroResult):
        self.result = result

    def mpi(self, call: str, total_seconds: float, calls: int = 0) -> None:
        r = self.result
        r.mpi_time[call] = r.mpi_time.get(call, 0.0) + float(total_seconds)
        if calls:
            r.mpi_calls[call] = r.mpi_calls.get(call, 0) + calls

    def sys(self, name: str, total_seconds: float, count: int) -> None:
        r = self.result
        r.syscall_time[name] = (r.syscall_time.get(name, 0.0)
                                + float(total_seconds))
        r.syscall_count[name] = r.syscall_count.get(name, 0) + count


def _noise_extra(rng: np.random.Generator, params: Params,
                 dt: float, n: int) -> np.ndarray:
    """Vectorized residual-noise sample for ``n`` Linux app cores over an
    interval of ``dt`` seconds each (mirrors linux.noise.NoiseModel)."""
    p = params.noise
    extra = np.full(n, dt * p.tick_rate_hz * p.tick_cost)
    bursts = rng.poisson(dt * p.burst_rate_hz, size=n)
    hot = bursts > 0
    if hot.any():
        mu = math.log(p.burst_log_median)
        extra[hot] += (bursts[hot]
                       * np.exp(rng.normal(mu, p.burst_log_sigma,
                                           size=int(hot.sum()))))
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
    params = params if params is not None else default_params()
    iters = iterations if iterations is not None else spec.iterations
    model = CommCostModel(params, config)
    rpn = spec.ranks_per_node
    R = spec.ranks_for(n_nodes)
    cpus = params.node.os_cores
    noisy = config.noisy_app_cores
    multik = config.is_multikernel
    rng = RngFactory(params.seed).stream(
        "macro", spec.name, config.value, n_nodes)

    result = MacroResult(app=spec.name, config=config, n_nodes=n_nodes,
                         n_ranks=R, runtime=0.0)
    acc = _Accumulator(result)
    lag = np.zeros(R)  # absolute per-rank clock

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
        acc.sys(name, R * n_calls * visible, R * n_calls)
    pair = model.mmap_times(24 * 1024 * 1024)   # scratch arena
    own += pair["mmap"][0]
    acc.sys("mmap", R * pair["mmap"][0], R)
    init_wall = max(own, rpn * demand / cpus)
    if config.has_picodriver:
        init_wall += params.syscall.pico_init_cost
    lag += init_wall
    acc.mpi("Init", R * init_wall, R)
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
        acc.mpi("Cart_create", R * cart, R)
        result.init_seconds += cart

    f_halo = off_node_fraction(n_nodes)
    f_sweep = off_node_fraction(n_nodes, base=0.55, growth=0.05)

    # ---------------- iterations -----------------------------------------------
    for _it in range(iters):
        compute = spec.compute_seconds * (spec.lwk_compute_factor
                                          if multik else 1.0)
        t = np.full(R, compute)
        if spec.imbalance_cv > 0:
            sigma = math.sqrt(math.log(1 + spec.imbalance_cv ** 2))
            t *= rng.lognormal(-sigma ** 2 / 2, sigma, size=R)
        if noisy:
            t += _noise_extra(rng, params, compute, R)
        lag += t

        for phase in spec.phases:
            if isinstance(phase, HaloExchange):
                _do_halo(acc, model, phase, f_halo, rpn, R, cpus, lag,
                         multik)
            elif isinstance(phase, SweepPhase):
                _do_sweep(acc, model, phase, f_sweep, rpn, R, cpus, lag,
                          multik, noisy, params)
            elif isinstance(phase, CollectivePhase):
                _do_collective(acc, model, phase, rpn, R, cpus, lag,
                               noisy, rng, params)
            elif isinstance(phase, MemChurn):
                _do_memchurn(acc, model, phase, rpn, R, cpus, lag, multik)
            elif isinstance(phase, FileIO):
                _do_fileio(acc, model, phase, rpn, R, cpus, lag, multik)
            else:  # pragma: no cover
                raise ValueError(f"unknown phase {phase!r}")

    # trailing sync: apps end with a reduction/output step
    final = float(lag.max())
    acc.mpi("Barrier", float((final - lag).sum()), R)
    result.runtime = final

    # nanosleep back-offs while waiting (visible in Figures 8-9)
    wait_total = (result.mpi_time.get("Wait", 0.0)
                  + result.mpi_time.get("Barrier", 0.0))
    sleeps = int(wait_total / _NANOSLEEP_PERIOD)
    if sleeps:
        sc = params.syscall
        per = (sc.lwk_entry + sc.nanosleep_cost / 2 if multik
               else sc.linux_entry + sc.nanosleep_cost)
        acc.sys("nanosleep", sleeps * per, sleeps)
    return result


# ----------------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------------

def _do_halo(acc, model: CommCostModel, phase: HaloExchange, f: float,
             rpn: int, R: int, cpus: int, lag: np.ndarray,
             multik: bool) -> None:
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
    for _round in range(phase.rounds):
        own_issue = (off * base.sender_time
                     + intra * model.shm_msg_time(phase.msg_bytes))
        own_recv = off * msg.receiver_time
        # completion tail: the last message's flight time
        tail = (min(1.0, off) * msg.latency
                + (1.0 if intra > 0 else 0.0)
                * model.shm_msg_time(phase.msg_bytes))
        node_wire = rpn * off * msg.wire
        node_demand = rpn * off * msg.node_cpu_demand
        issue_contended = (off * msg.sender_time
                           + intra * model.shm_msg_time(phase.msg_bytes))
        wall = max(issue_contended + own_recv + tail, node_wire,
                   node_demand / cpus, own_issue)
        # waitall on neighbors partially synchronizes: most of the lag
        # spread is absorbed here as Wait time (HACC's Linux profile)
        spread = (lag.max() - lag) * 0.7
        acc.mpi("Isend", R * own_issue, R * phase.neighbors)
        acc.mpi("Wait",
                R * max(0.0, wall - own_issue) + float(spread.sum()),
                R * phase.neighbors)
        for name, count, visible in msg.syscalls:
            # sender-side writev for sends, receiver-side ioctls for recvs
            acc.sys(name, R * off * count * visible,
                    int(R * off) * count)
        lag += wall + spread


def _do_sweep(acc, model: CommCostModel, phase: SweepPhase, f: float,
              rpn: int, R: int, cpus: int, lag: np.ndarray,
              multik: bool, noisy: bool, params: Params) -> None:
    """Latency-chained pipeline: stage s+1 waits on stage s delivery."""
    active = phase.active_fraction
    jobs_per_stage = rpn * active * phase.msgs_per_stage * f
    # steady state: every active rank keeps ~one offload outstanding
    depth = max(1.0, jobs_per_stage / cpus) if multik else 0.0
    msg = model.message(phase.msg_bytes, depth_per_cpu=depth)
    stage_lat = (f * msg.latency
                 + (1 - f) * model.shm_msg_time(phase.msg_bytes))
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
                    + (1 - f) * model.shm_msg_time(phase.msg_bytes)))
    # sweeps use persistent channels (MPI_Start + MPI_Wait, the pattern
    # visible in the paper's UMT2013 Table 1 rows)
    acc.mpi("Start", R * own_issue, R * int(phase.stages * active))
    acc.mpi("Wait", R * max(0.0, wall - own_issue))
    acc.mpi("Request_free", R * phase.stages * active * 2e-7,
            R * int(phase.stages * active))
    per_rank_msgs = phase.stages * active * phase.msgs_per_stage * f
    for name, count, visible in msg.syscalls:
        acc.sys(name, R * per_rank_msgs * count * visible,
                int(R * per_rank_msgs * count))
    lag += wall


def _do_collective(acc, model: CommCostModel, phase: CollectivePhase,
                   rpn: int, R: int, cpus: int, lag: np.ndarray,
                   noisy: bool, rng, params: Params) -> None:
    """Synchronize (straggler absorption) then run the collective."""
    scope = phase.scope if phase.scope else R
    name = {"barrier": "Barrier", "allreduce": "Allreduce",
            "bcast": "Bcast", "alltoallv": "Alltoallv",
            "allgather": "Allgather", "scan": "Scan"}[phase.kind]
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
    for _c in range(phase.count):
        entered = lag.copy()
        sync_at = float(lag.max())
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
        if sdma:
            for sname, count, visible in msg.syscalls:
                acc.sys(sname, R * msgs_per_rank * count * visible,
                        int(R * msgs_per_rank * count))
        per_rank = (sync_at - entered) + cost
        acc.mpi(name, float(per_rank.sum()), R)
        lag[:] = sync_at + cost


def _do_memchurn(acc, model: CommCostModel, phase: MemChurn, rpn: int,
                 R: int, cpus: int, lag: np.ndarray, multik: bool) -> None:
    # churn is spread through the iteration, not bulk-synchronous
    depth = 2.0 if multik else 0.0
    pair = model.mmap_times(phase.nbytes, depth_per_cpu=depth)
    own = phase.mmaps * (pair["mmap"][0] + pair["munmap"][0])
    demand = phase.mmaps * (pair["mmap"][1] + pair["munmap"][1])
    wall = max(own, rpn * demand / cpus)
    acc.sys("mmap", R * phase.mmaps * pair["mmap"][0], R * phase.mmaps)
    acc.sys("munmap", R * phase.mmaps * pair["munmap"][0], R * phase.mmaps)
    lag += wall


def _do_fileio(acc, model: CommCostModel, phase: FileIO, rpn: int, R: int,
               cpus: int, lag: np.ndarray, multik: bool) -> None:
    sc = model.params.syscall
    # diagnostics I/O is spread through the iteration, not bulk
    depth = 2.0 if multik else 0.0
    open_vis, open_dem = model.plain_call(sc.open_cost, depth)
    read_vis, read_dem = model.plain_call(sc.read_cost, depth)
    close_vis, close_dem = model.plain_call(sc.close_cost, depth)
    own = open_vis + phase.reads * read_vis + close_vis
    demand = open_dem + phase.reads * read_dem + close_dem
    wall = max(own, rpn * demand / cpus)
    acc.sys("open", R * open_vis, R)
    acc.sys("read", R * phase.reads * read_vis, R * phase.reads)
    lag += wall
