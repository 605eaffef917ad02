"""Larger-scale projection (paper section 6 future work).

"In the near future, we have also plans to perform a much larger scale
evaluation of McKernel using the PicoDriver framework."  The calibrated
cluster model makes that projection cheap: this experiment extends the
weak-scaling sweeps past the paper's 256 nodes to OFP's full 8,208-node
class (we project to 2,048 nodes = 65,536 ranks at 32 ranks/node, and
report whether the paper's qualitative story persists or strengthens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..apps import ALL_APPS
from ..cluster import simulate_app
from ..config import ALL_CONFIGS, OSConfig
from ..params import Params

PROJECTION_NODE_COUNTS = (256, 512, 1024, 2048)
PROJECTED_APPS = ("UMT2013", "Nekbone", "QBOX")


@dataclass
class ProjectionResult:
    """Relative performance per app at projection scales."""

    node_counts: Tuple[int, ...]
    #: (app, config, nodes) -> relative performance to Linux
    relative: Dict[Tuple[str, OSConfig, int], float]

    def series(self, app: str, config: OSConfig):
        """Relative-performance series for one app/config."""
        return [self.relative[(app, config, n)] for n in self.node_counts]

    def render(self) -> str:
        """Plain-text projection tables per app."""
        lines = ["Projection beyond the paper's 256 nodes "
                 "(relative performance to Linux, %)"]
        for app in PROJECTED_APPS:
            lines.append(f"\n{app}:")
            lines.append(f"{'nodes':>7s} {'ranks':>8s} "
                         f"{'McKernel':>10s} {'McK+HFI':>10s}")
            spec = ALL_APPS[app]
            for n in self.node_counts:
                mck = self.relative[(app, OSConfig.MCKERNEL, n)]
                hfi = self.relative[(app, OSConfig.MCKERNEL_HFI, n)]
                lines.append(f"{n:7d} {spec.ranks_for(n):8d} "
                             f"{100 * mck:9.1f}% {100 * hfi:9.1f}%")
        return "\n".join(lines)


def run_projection(node_counts: Sequence[int] = PROJECTION_NODE_COUNTS,
                   params: Optional[Params] = None,
                   iterations: Optional[int] = 4) -> ProjectionResult:
    """Project the scaling sweeps past 256 nodes."""
    relative: Dict[Tuple[str, OSConfig, int], float] = {}
    for app in PROJECTED_APPS:
        spec = ALL_APPS[app]
        for n in node_counts:
            results = {c: simulate_app(spec, n, c, params=params,
                                       iterations=iterations)
                       for c in ALL_CONFIGS}
            linux = results[OSConfig.LINUX].figure_of_merit
            for c in ALL_CONFIGS:
                relative[(app, c, n)] = results[c].figure_of_merit / linux
    return ProjectionResult(node_counts=tuple(node_counts),
                            relative=relative)
