"""Figures 8 and 9: McKernel kernel-level syscall breakdown.

The paper's in-house McKernel profiler (it has no Linux equivalent, so
only the two McKernel configurations are compared) reports where kernel
time goes, per syscall, for UMT2013 (Figure 8) and QBOX (Figure 9) on
8 nodes.

Shapes to reproduce:

* original McKernel, UMT2013: ioctl() + writev() dominate (the offloaded
  expected-receive registration and SDMA sends) — over 70% of kernel time;
* McKernel+HFI, UMT2013: those calls drop to a small share and total
  kernel time collapses to a few percent of the original;
* McKernel+HFI, QBOX: munmap() dominates the remaining kernel time — the
  memory-management future work the paper calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..apps import ALL_APPS
from ..cluster import MacroResult, simulate_app
from ..config import OSConfig
from ..params import Params

#: the seven calls the paper's pie charts list
PROFILED_SYSCALLS = ("read", "open", "mmap", "munmap", "ioctl", "writev",
                     "nanosleep")


@dataclass
class SyscallBreakdown:
    """One pie chart: per-syscall share of kernel time."""

    app: str
    config: OSConfig
    #: syscall -> share of total kernel time (sums to ~1)
    shares: Dict[str, float]
    total_kernel_time: float

    def share(self, name: str) -> float:
        """This syscall's share of kernel time (0 if absent)."""
        return self.shares.get(name, 0.0)

    def dominant(self) -> str:
        """The syscall with the largest share."""
        return max(self.shares, key=self.shares.get)


@dataclass
class Fig89Result:
    """Both McKernel configurations for one application."""

    app: str
    mckernel: SyscallBreakdown
    mckernel_hfi: SyscallBreakdown

    @property
    def kernel_time_ratio(self) -> float:
        """McKernel+HFI kernel time as a fraction of the original's
        (the paper quotes 7% for UMT2013 and 25% for QBOX)."""
        return (self.mckernel_hfi.total_kernel_time
                / self.mckernel.total_kernel_time)

    def render(self, figure: str) -> str:
        """Plain-text breakdown table for both McKernel configs."""
        lines = [f"{figure}: system call breakdown for {self.app} "
                 f"(share of kernel time)",
                 f"{'syscall':>12s} {'McKernel':>10s} {'McKernel+HFI':>13s}"]
        for name in PROFILED_SYSCALLS:
            lines.append(f"{name + '()':>12s} "
                         f"{100 * self.mckernel.share(name):9.1f}% "
                         f"{100 * self.mckernel_hfi.share(name):12.1f}%")
        lines.append(f"McKernel+HFI total kernel time: "
                     f"{100 * self.kernel_time_ratio:.1f}% of the original")
        return "\n".join(lines)


def _breakdown(result: MacroResult) -> SyscallBreakdown:
    return SyscallBreakdown(app=result.app, config=result.config,
                            shares=result.syscall_shares(),
                            total_kernel_time=result.total_kernel_time)


def run_breakdown(app: str, n_nodes: int = 8,
                  params: Optional[Params] = None,
                  iterations: Optional[int] = None) -> Fig89Result:
    """Kernel syscall breakdown for one app on both McKernel configs."""
    spec = ALL_APPS[app]
    results = {}
    for config in (OSConfig.MCKERNEL, OSConfig.MCKERNEL_HFI):
        results[config] = simulate_app(spec, n_nodes, config, params=params,
                                       iterations=iterations)
    return Fig89Result(app=app,
                       mckernel=_breakdown(results[OSConfig.MCKERNEL]),
                       mckernel_hfi=_breakdown(
                           results[OSConfig.MCKERNEL_HFI]))


def run_fig8(n_nodes: int = 8, params: Optional[Params] = None,
             iterations: Optional[int] = None) -> Fig89Result:
    """Regenerate Figure 8 (UMT2013 syscall breakdown)."""
    return run_breakdown("UMT2013", n_nodes, params, iterations)


def run_fig9(n_nodes: int = 8, params: Optional[Params] = None,
             iterations: Optional[int] = None) -> Fig89Result:
    """Regenerate Figure 9 (QBOX syscall breakdown)."""
    return run_breakdown("QBOX", n_nodes, params, iterations)
