"""``python -m repro trace`` — run an experiment with tracing enabled.

    python -m repro trace fig4  [--out trace.json] [--breakdown] [--smoke]
    python -m repro trace chaos [--out trace.json] [--breakdown]

Builds a :class:`~repro.obs.spans.SpanCollector`, installs it with
``planes(trace=collector)`` for the duration of the experiment,
then optionally writes the Chrome-trace JSON (open in
https://ui.perfetto.dev) and prints the per-segment critical-path
breakdown for the largest completed message under every OS config.
"""

from __future__ import annotations

from typing import List

from ..config import ALL_CONFIGS, planes
from ..units import KiB, MiB
from .critical_path import render_breakdown
from .export import write_chrome_trace
from .spans import SpanCollector

#: trimmed fig4 sweep for --smoke: one PIO-regime and one SDMA-regime size
SMOKE_SIZES = (16 * KiB, 4 * MiB)

_USAGE = ("usage: python -m repro trace <fig4|chaos> "
          "[--out FILE] [--breakdown] [--smoke]")


def run_traced(experiment: str, smoke: bool = False) -> SpanCollector:
    """Run ``experiment`` with tracing enabled; returns the collector.

    The collector is installed only for the duration of the run, so the
    caller never leaks tracing into later machine builds.
    """
    collector = SpanCollector()
    with planes(trace=collector):
        if experiment == "fig4":
            from ..experiments.fig4 import run_fig4
            if smoke:
                result = run_fig4(sizes=SMOKE_SIZES, repetitions=1)
            else:
                result = run_fig4(repetitions=2)
            print(result.render())
        elif experiment == "chaos":
            from ..experiments.chaos import run_chaos
            result = run_chaos(smoke=True)
            print(result.render())
        else:
            raise ValueError(f"unknown trace experiment {experiment!r}")
    collector.finalize()
    return collector


def cmd_trace(argv: List[str]) -> int:
    """Entry point for ``python -m repro trace ...``."""
    out = None
    rest: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--out":
            out = next(it, None)
            if out is None:
                print(_USAGE)
                return 2
        else:
            rest.append(arg)
    breakdown = "--breakdown" in rest
    smoke = "--smoke" in rest
    rest = [a for a in rest if a not in ("--breakdown", "--smoke")]
    unknown = [a for a in rest if a.startswith("-")]
    if unknown or len(rest) != 1 or rest[0] not in ("fig4", "chaos"):
        print(_USAGE)
        return 2
    experiment = rest[0]

    collector = run_traced(experiment, smoke=smoke)
    print(f"\ntrace: {len(collector.spans)} spans, "
          f"{len(collector.flows)} flow edges")
    if out is not None:
        write_chrome_trace(collector, out)
        print(f"trace: wrote {out} (load in https://ui.perfetto.dev)")
    if breakdown:
        for config in ALL_CONFIGS:
            print()
            print(render_breakdown(collector, config.label))
    return 0
