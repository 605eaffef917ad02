"""Per-syscall kernel-time breakdown (paper Figures 8-9).

The paper profiles McKernel with an in-house kernel profiler ("currently
only available for McKernel"), reporting the share of kernel time spent
in each system call.  In this reproduction every kernel's syscall
dispatcher records per-call elapsed time into its tracer under
``syscall.<name>``; this module turns those records into the pie-chart
view, for both the detailed (micro) and the macro simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..sim import Tracer


@dataclass
class KernelProfile:
    """Kernel time per syscall, plus the derived shares."""

    times: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.times.values())

    def shares(self) -> Dict[str, float]:
        """Per-syscall share of total kernel time, sorted descending."""
        total = self.total or 1.0
        return {name: t / total for name, t in
                sorted(self.times.items(), key=lambda kv: -kv[1])}

    def share(self, name: str) -> float:
        """One syscall's share (0 if absent)."""
        return self.shares().get(name, 0.0)

    def dominant(self) -> Optional[str]:
        """The syscall with the most kernel time, or None."""
        if not self.times:
            return None
        return max(self.times, key=self.times.get)

    def ratio_to(self, other: "KernelProfile") -> float:
        """This profile's kernel time as a fraction of ``other``'s —
        the paper's "7% of the original McKernel system time" metric."""
        return self.total / other.total if other.total else float("inf")

    def render(self, label: str = "") -> str:
        """Plain-text breakdown (the pie chart as a table)."""
        lines = [f"Kernel time breakdown{(' — ' + label) if label else ''} "
                 f"(total {self.total * 1e3:.3f}ms)"]
        for name, share in self.shares().items():
            lines.append(f"  {name + '()':>12s} {100 * share:6.1f}%")
        return "\n".join(lines)


def profile_from_tracer(tracer: Tracer, prefix: str = "syscall.") -> KernelProfile:
    """Extract the per-syscall profile a kernel's tracer accumulated."""
    times: Dict[str, float] = {}
    for name, total in tracer.totals(prefix).items():
        call = name[len(prefix):]
        if "." in call:        # skip e.g. syscall.writev.calls counters
            continue
        times[call] = times.get(call, 0.0) + total
    return KernelProfile(times=times)


def profile_from_mapping(times: Mapping[str, float]) -> KernelProfile:
    """Build a profile from a macro result's ``syscall_time`` dict."""
    return KernelProfile(times=dict(times))
