"""Figure 6: UMT2013 (a) and HACC (b) relative performance.

These are the workloads that motivated PicoDriver.  Paper shape: parity
on a single node (intra-node shared memory, no driver calls); the
original McKernel collapses on multi-node runs (UMT below ~20-40% of
Linux, HACC to ~70%) under offloaded-driver-call contention; McKernel
with the HFI PicoDriver beats Linux.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..apps import HACC, UMT2013
from ..params import Params
from .scaling import DEFAULT_NODE_COUNTS, ScalingResult, run_scaling

#: the paper's Figure 6b stops at 128 nodes for HACC
HACC_NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


def run_fig6a(node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
              params: Optional[Params] = None,
              iterations: Optional[int] = None) -> ScalingResult:
    """Regenerate Figure 6a (UMT2013 weak scaling)."""
    return run_scaling(UMT2013, node_counts, params, iterations)


def run_fig6b(node_counts: Sequence[int] = HACC_NODE_COUNTS,
              params: Optional[Params] = None,
              iterations: Optional[int] = None) -> ScalingResult:
    """Regenerate Figure 6b (HACC weak scaling)."""
    return run_scaling(HACC, node_counts, params, iterations)
