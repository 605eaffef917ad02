"""Figure 4: MPI ping-pong bandwidth (Linux / McKernel / McKernel+HFI).

Runs the IMB-style ping-pong on the *detailed* discrete-event simulator —
full PSM / driver / SDMA / IKC stack — for each OS configuration and
reports one bandwidth series per configuration.

Paper shape to reproduce: all three equal below the 64KB PIO threshold;
McKernel ~90% of Linux above it; McKernel+HFI above Linux by up to 15% at
4MB (10KB vs 4KB SDMA descriptors).  Here the HFI gain peaks at 256KB
instead (1.41; claim ``fig4.hfi_peak``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..apps.imb import PingPong
from ..config import ALL_CONFIGS, OSConfig
from ..params import Params
from ..units import KiB, MiB, fmt_size
from .common import build_machine

#: the sizes we sweep (a subset of IMB's 8B..4MB by default for speed)
DEFAULT_SIZES = (8, 64, 512, 4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB,
                 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB)


@dataclass
class Fig4Result:
    """Bandwidth series per OS configuration."""

    sizes: Tuple[int, ...]
    #: config -> {size: bytes/second}
    series: Dict[OSConfig, Dict[int, float]]

    def ratio(self, config: OSConfig, size: int) -> float:
        """Bandwidth of ``config`` relative to Linux at ``size``."""
        return (self.series[config][size]
                / self.series[OSConfig.LINUX][size])

    def render(self) -> str:
        """Plain-text Figure 4 table with config ratios."""
        header = (f"{'Message size':>12s} "
                  + " ".join(f"{c.label:>14s}" for c in ALL_CONFIGS)
                  + f" {'McK/Linux':>10s} {'HFI/Linux':>10s}")
        lines = ["Figure 4: MPI Ping-pong bandwidth (MB/s)", header]
        for size in self.sizes:
            row = [self.series[c][size] / 1e6 for c in ALL_CONFIGS]
            lines.append(
                f"{fmt_size(size):>12s} "
                + " ".join(f"{v:14.1f}" for v in row)
                + f" {self.ratio(OSConfig.MCKERNEL, size):10.2f}"
                + f" {self.ratio(OSConfig.MCKERNEL_HFI, size):10.2f}")
        return "\n".join(lines)


def run_fig4(sizes: Sequence[int] = DEFAULT_SIZES,
             repetitions: int = 5,
             params: Optional[Params] = None) -> Fig4Result:
    """Regenerate Figure 4."""
    series: Dict[OSConfig, Dict[int, float]] = {}
    for config in ALL_CONFIGS:
        machine = build_machine(2, config, params=params)
        series[config] = PingPong(machine, repetitions=repetitions).run(sizes)
    return Fig4Result(sizes=tuple(sizes), series=series)
