"""PicoTrace: causal cross-kernel event tracing (the observability plane).

The subsystem has three layers:

* :mod:`repro.obs.spans` — the span/flow store and the per-object track
  stamping (:func:`~repro.obs.spans.track_of`), fed by trace-gated
  hooks throughout the MPI/PSM/kernel/driver/hardware stack;
* :mod:`repro.obs.export` — Chrome-trace / Perfetto JSON export with
  one track per node/kernel/SDMA-engine;
* :mod:`repro.obs.critical_path` — the backward flow-edge walk from a
  message completion to a per-segment latency breakdown.

Everything is opt-in via the ``trace`` slot of
:data:`repro.config.PLANES` (``planes(trace=collector)``); every hook
tests ``PLANES.trace is not None`` first, so with the slot empty no
hook runs and experiment outputs are bit-identical to an
uninstrumented build (lint rule PD011 enforces the gating).
"""

from .critical_path import (Segment, breakdown_by_category, critical_path,
                            message_completion, render_breakdown)
from .export import (chrome_trace_events, export_chrome_trace,
                     write_chrome_trace)
from .spans import Span, SpanCollector, track_of

__all__ = [
    "Span", "SpanCollector", "track_of",
    "chrome_trace_events", "export_chrome_trace", "write_chrome_trace",
    "Segment", "breakdown_by_category", "critical_path",
    "message_completion", "render_breakdown",
]
