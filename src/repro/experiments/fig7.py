"""Figure 7: QBOX relative performance.

QBOX only runs on 4+ nodes (input decks, section 4.3).  Paper shape: the
original McKernel is not significantly below Linux; McKernel+HFI shows
substantial speedups growing with scale (paper: up to 30%).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..apps import QBOX
from ..params import Params
from .scaling import ScalingResult, run_scaling

#: Figure 7's x-axis starts at 4 nodes
QBOX_NODE_COUNTS = (4, 8, 16, 32, 64, 128, 256)


def run_fig7(node_counts: Sequence[int] = QBOX_NODE_COUNTS,
             params: Optional[Params] = None,
             iterations: Optional[int] = None) -> ScalingResult:
    """Regenerate Figure 7 (QBOX weak scaling, 4+ nodes)."""
    return run_scaling(QBOX, node_counts, params, iterations)
