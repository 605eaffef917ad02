"""Tracing composed with fault injection: recovery becomes visible."""

from repro.config import OSConfig, planes
from repro.experiments.chaos import run_chaos
from repro.obs import SpanCollector


def test_chaos_run_shows_recovery_spans():
    """A faulted sweep leaves retransmit and fast-path-fallback marks in
    the trace, on top of the counters the chaos report is built from."""
    collector = SpanCollector()
    with planes(trace=collector):
        result = run_chaos(smoke=True, configs=(OSConfig.MCKERNEL_HFI,))
    collector.finalize()
    assert result.violations == []
    recovery = collector.find(cat="recovery")
    names = {s.name for s in recovery}
    assert "psm.retransmit" in names
    assert "pico.fallback" in names
    # the marks carry enough context to aggregate by failure mode
    kinds = {s.args.get("kind") for s in recovery
             if s.name == "psm.retransmit"}
    assert kinds
    fallbacks = [s for s in recovery if s.name == "pico.fallback"]
    assert all(s.args.get("syscall") for s in fallbacks)
    # recovery totals in the trace match the chaos counters
    faulted = [c for c in result.cells if c.rate > 0
               and c.os_config is OSConfig.MCKERNEL_HFI]
    counted = sum(c.counters.get("pico.fallbacks", 0) for c in faulted)
    assert counted == len(fallbacks)
