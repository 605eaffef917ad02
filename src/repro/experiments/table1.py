"""Table 1: communication profile of UMT2013, HACC and QBOX on 8 nodes.

For each application and OS configuration, the top-5 MPI calls with
cumulative Time (seconds summed over all ranks), % of MPI time and % of
total runtime — the ``I_MPI_STATS`` view of the paper.

Shapes to reproduce (see the paper's Table 1):

* UMT2013/HACC on the original McKernel spend close to an order of
  magnitude more time in the top calls than on Linux, concentrated in
  MPI_Wait (communication progression for asynchronous transfers);
* McKernel+HFI spends *less* time in MPI_Wait than Linux;
* MPI_Init is inflated on McKernel+HFI (device-driver mapping setup) —
  the intended trade of fast-path speed for administrative cost;
* HACC's top Linux cost is MPI_Cart_create, and it shrinks ~3x on the
  multi-kernels (large-page/contiguous memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..apps import ALL_APPS
from ..cluster import MacroResult, simulate_app
from ..config import ALL_CONFIGS, OSConfig
from ..mpi.stats import StatRow
from ..params import Params

TABLE1_APPS = ("UMT2013", "HACC", "QBOX")
TABLE1_NODES = 8


@dataclass
class Table1Result:
    """Top-5 call profiles per app per OS configuration."""

    n_nodes: int
    #: (app, config) -> MacroResult
    raw: Dict[Tuple[str, OSConfig], MacroResult]

    def top(self, app: str, config: OSConfig, n: int = 5) -> List[StatRow]:
        """Top-n MPI calls for one app and configuration."""
        return self.raw[(app, config)].top_calls(n)

    def time_in(self, app: str, config: OSConfig, call: str) -> float:
        """Cumulative seconds in one MPI call."""
        return self.raw[(app, config)].mpi_time.get(call, 0.0)

    def render(self) -> str:
        """Plain-text Table 1."""
        lines = [f"Table 1: Communication profile on {self.n_nodes} "
                 f"compute nodes (Time = cumulative seconds over ranks)"]
        for app in TABLE1_APPS:
            lines.append(f"\n--- {app} ---")
            lines.append(f"{'OS':14s} {'Call (MPI_)':14s} {'Time':>10s} "
                         f"{'% MPI':>7s} {'% Rt':>7s}")
            for config in ALL_CONFIGS:
                for i, row in enumerate(self.top(app, config)):
                    prefix = config.label if i == 0 else ""
                    lines.append(f"{prefix:14s} {row.call:14s} "
                                 f"{row.time:10.2f} {row.pct_mpi:7.2f} "
                                 f"{row.pct_runtime:7.2f}")
        return "\n".join(lines)


def run_table1(n_nodes: int = TABLE1_NODES,
               params: Optional[Params] = None,
               iterations: Optional[int] = None) -> Table1Result:
    """Regenerate Table 1 (8-node communication profiles)."""
    raw: Dict[Tuple[str, OSConfig], MacroResult] = {}
    for app in TABLE1_APPS:
        spec = ALL_APPS[app]
        for config in ALL_CONFIGS:
            raw[(app, config)] = simulate_app(spec, n_nodes, config,
                                              params=params,
                                              iterations=iterations)
    return Table1Result(n_nodes=n_nodes, raw=raw)
