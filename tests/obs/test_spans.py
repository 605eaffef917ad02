"""Span/collector unit behavior plus the disabled-identity guarantee."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.config import planes
from repro.experiments import run_fig4
from repro.obs import SpanCollector
from repro.units import KiB

SIZES = (16 * KiB, 256 * KiB)


# --- collector unit behavior -------------------------------------------------

def test_nesting_parents_and_stack():
    c = SpanCollector()
    outer = c.begin_span("outer", "n0/lwk")
    inner = c.begin_span("inner", "n0/lwk")
    assert inner.parent == outer.sid
    assert c.current().name == "inner"
    c.end_span(inner)
    assert c.current().name == "outer"
    c.end_span(outer)
    assert c.current() is None


def test_detached_span_takes_parent_but_not_stack():
    c = SpanCollector()
    outer = c.begin_span("outer", "n0/lwk")
    det = c.begin_span("desc", "n0/sdma0", detached=True)
    assert det.parent == outer.sid
    assert c.current() is outer      # detached spans never own the stack
    c.end_span(det)
    c.end_span(outer)


def test_instant_and_complete_spans():
    c = SpanCollector()
    inst = c.instant_span("irq", "n0/irq", args={"n": 1})
    assert inst.start == inst.end and inst.duration == 0.0
    comp = c.complete_span("wire", "fab", 1.0, 3.5, flow_from=inst)
    assert (comp.start, comp.end) == (1.0, 3.5)
    assert c.flows == [(1, inst.sid, comp.sid)]


def test_flow_from_none_is_dropped():
    c = SpanCollector()
    a = c.begin_span("a", "t", flow_from=None)
    c.end_span(a)
    assert c.flows == []


def test_end_span_merges_args_and_find_filters():
    c = SpanCollector()
    s = c.begin_span("x", "n0/lwk", cat="psm", args={"a": 1})
    c.end_span(s, args={"b": 2})
    assert s.args == {"a": 1, "b": 2}
    assert c.find(cat="psm") == [s]
    assert c.find(name="x", track_prefix="n0/") == [s]
    assert c.find(track_prefix="n1/") == []


def test_finalize_closes_dangling_spans():
    c = SpanCollector()
    s = c.begin_span("leaked", "t")
    assert s.end is None
    c.finalize()
    assert s.end is not None
    assert c.current() is None


# --- the identity guarantee of the trace gate -------------------------------

def test_tracing_never_perturbs_the_simulation():
    """Spans add no simulation events and no RNG draws, so fig4 is
    bit-identical with tracing off and on."""
    baseline = run_fig4(sizes=SIZES, repetitions=1)

    collector = SpanCollector()
    with planes(trace=collector):
        traced = run_fig4(sizes=SIZES, repetitions=1)
    assert collector.spans, "traced run recorded nothing"
    assert traced.series == baseline.series
    for cfg, series in baseline.series.items():
        for size, bw in series.items():
            assert traced.series[cfg][size] == pytest.approx(bw, rel=0,
                                                             abs=0)


#: a traced 256 KiB ping-pong per OS config in one collector, in a fresh
#: interpreter; argv[1] picks when the garbage collector runs.  A run
#: stops at the last message's completion, while the receiver's ioctl
#: that frees its TIDs is still open: that generator is abandoned, and
#: its span is ended whenever the generator is collected.
_GC_PROBE = """
import gc, json, sys
if sys.argv[1] == "disabled":
    gc.disable()
from repro.apps.imb import PingPong
from repro.config import ALL_CONFIGS, planes
from repro.experiments import build_machine
from repro.obs import SpanCollector, chrome_trace_events
collector = SpanCollector()
with planes(trace=collector):
    for config in ALL_CONFIGS:
        machine = build_machine(2, config)
        PingPong(machine, repetitions=1).run([256 * 1024])
        del machine
        if sys.argv[1] == "collect":
            gc.collect()
collector.finalize()
print(json.dumps(chrome_trace_events(collector), sort_keys=True))
"""


def test_span_export_does_not_depend_on_gc_timing():
    """A span closes on the clock of the simulator it was opened on, so
    an abandoned generator's span ends at the same time whether the
    collector frees it between machines or never."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    exports = []
    for mode in ("disabled", "collect"):
        result = subprocess.run([sys.executable, "-c", _GC_PROBE, mode],
                                capture_output=True, text=True, timeout=300,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr[-2000:]
        exports.append(json.loads(result.stdout))
    assert exports[0] == exports[1]
    assert any(e["name"] == "linux.ioctl" for e in exports[0])
