"""Offload-contention study (paper section 4.3, measured on the DES).

The paper's key observation: "simultaneous interaction with the device
driver via system call offloading is ... affected by the fact that there
are substantially lower number of Linux CPUs than the number of MPI
ranks.  This further amplifies the cost of these calls because it
introduces high contention on a few Linux CPUs for driver processing."

This experiment reproduces that amplification on the *detailed*
simulator: N McKernel ranks on one node issue TID-registration ioctls
simultaneously; we report the mean caller-visible latency per call and
compare it with the macro model's closed form (queue depth x service).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.model import CommCostModel
from ..config import OSConfig
from ..linux.hfi1 import ioctls as ioc
from ..params import Params, default_params
from ..units import KiB, fmt_time
from .common import build_machine

DEFAULT_RANK_COUNTS = (1, 2, 4, 8, 16, 32)
CALLS_PER_RANK = 4
REGION = 64 * KiB


@dataclass
class ContentionResult:
    """Measured (DES) and predicted (macro) offload latency per call."""

    rank_counts: Tuple[int, ...]
    measured: Dict[int, float]      # mean visible seconds per ioctl
    predicted: Dict[int, float]

    def amplification(self, n: int) -> float:
        """Latency at ``n`` ranks relative to the uncontended case."""
        return self.measured[n] / self.measured[self.rank_counts[0]]

    def render(self) -> str:
        """Plain-text table of measured vs predicted latencies."""
        lines = ["Offloaded TID_UPDATE latency vs concurrent ranks "
                 "(one node, 4 Linux CPUs)",
                 f"{'ranks':>6s} {'measured':>10s} {'amplif.':>8s} "
                 f"{'macro model':>12s}"]
        for n in self.rank_counts:
            lines.append(f"{n:6d} {fmt_time(self.measured[n]):>10s} "
                         f"{self.amplification(n):7.1f}x "
                         f"{fmt_time(self.predicted[n]):>12s}")
        return "\n".join(lines)


def measure_offload_latency(n_ranks: int,
                            params: Optional[Params] = None) -> float:
    """Mean caller-visible TID_UPDATE latency with ``n_ranks`` issuing
    concurrently on one McKernel node (detailed DES)."""
    params = params if params is not None else default_params()
    machine = build_machine(1, OSConfig.MCKERNEL, params=params)
    sim = machine.sim
    latencies: List[float] = []

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", REGION * CALLS_PER_RANK)
        # synchronize all ranks to issue together (the halo-phase shape)
        yield from sim.delay(1e-3 - sim.now % 1e-3)
        for c in range(CALLS_PER_RANK):
            t0 = sim.now
            tids = yield from task.syscall(
                "ioctl", fd, ioc.HFI1_IOCTL_TID_UPDATE,
                {"vaddr": buf + c * REGION, "length": REGION})
            latencies.append(sim.now - t0)
            yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_FREE,
                                    {"tids": tids})

    procs = [sim.process(body(machine.spawn_rank(0, i)))
             for i in range(n_ranks)]
    sim.run()
    for p in procs:
        assert p.ok, p.exception
    return sum(latencies) / len(latencies)


def predict_offload_latency(n_ranks: int,
                            params: Optional[Params] = None) -> float:
    """The macro model's closed form for the same situation."""
    params = params if params is not None else default_params()
    model = CommCostModel(params, OSConfig.MCKERNEL)
    depth = max(1.0, n_ranks / params.node.os_cores)
    # the rank alternates TID_UPDATE and TID_FREE; average the pair
    up, _ = model.driver_call(model.tid_update_handler(REGION), True, depth)
    fr, _ = model.driver_call(model.tid_free_handler(REGION), True, depth)
    return (up + fr) / 2


def run_contention(rank_counts=DEFAULT_RANK_COUNTS,
                   params: Optional[Params] = None) -> ContentionResult:
    """Measure (DES) and predict (macro) offload latency per rank count."""
    measured = {n: measure_offload_latency(n, params) for n in rank_counts}
    predicted = {n: predict_offload_latency(n, params)
                 for n in rank_counts}
    return ContentionResult(rank_counts=tuple(rank_counts),
                            measured=measured, predicted=predicted)
