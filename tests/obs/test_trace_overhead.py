"""Tracing overhead: Figure-4 wall clock with spans off versus on.

Tracing must stay cheap: span emission is plain Python bookkeeping
(no extra simulation events, no RNG draws), so the traced run must stay
under a documented slowdown bound versus the untraced run.
"""

import time

from repro.config import planes
from repro.experiments import run_fig4
from repro.obs import SpanCollector
from repro.units import KiB

#: sizes kept small: this test times the harness, not the figure
SIZES = (16 * KiB, 256 * KiB)

#: documented bound: traced runs may cost at most this factor over
#: untraced ones (measured ~1.3-1.8x; the slack absorbs CI jitter).
#: Tightened from 3.0x after the engine's precomputed no-op dispatch
#: removed the per-event monitor branches from the untraced hot path.
MAX_SLOWDOWN = 2.5


def _fig4_seconds() -> float:
    """Best-of-two wall-clock seconds for one small fig4 regeneration."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        run_fig4(sizes=SIZES, repetitions=1)
        best = min(best, time.perf_counter() - t0)
    return best


def test_trace_overhead():
    """Compare fig4 wall clock untraced vs traced; check the bound."""
    t_off = _fig4_seconds()
    collector = SpanCollector()
    with planes(trace=collector):
        t_on = _fig4_seconds()
    assert collector.spans, "traced run recorded no spans"

    slowdown = t_on / t_off if t_off > 0 else 1.0
    assert slowdown < MAX_SLOWDOWN, \
        f"tracing slowed fig4 by {slowdown:.2f}x (bound {MAX_SLOWDOWN}x)"
