"""Figure 5: LAMMPS (a) and Nekbone (b) relative performance.

Paper shape: neither app is hurt by the PicoDriver architecture —
LAMMPS tracks Linux closely; Nekbone shows a small McKernel win (noise-
free allreduces) that the HFI driver preserves.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..apps import LAMMPS, NEKBONE
from ..params import Params
from .scaling import DEFAULT_NODE_COUNTS, ScalingResult, run_scaling


def run_fig5a(node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
              params: Optional[Params] = None,
              iterations: Optional[int] = None) -> ScalingResult:
    """Regenerate Figure 5a (LAMMPS weak scaling)."""
    return run_scaling(LAMMPS, node_counts, params, iterations)


def run_fig5b(node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
              params: Optional[Params] = None,
              iterations: Optional[int] = None) -> ScalingResult:
    """Regenerate Figure 5b (Nekbone weak scaling)."""
    return run_scaling(NEKBONE, node_counts, params, iterations)
