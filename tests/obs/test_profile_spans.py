"""Per kernel track, the syscall spans sum to the tracer's accounting:
the two accounting planes (spans and tracer counters) agree."""

import pytest

from repro.config import OSConfig, planes
from repro.experiments import build_machine
from repro.obs import SpanCollector
from repro.profiling import profile_from_tracer


def _traced_micro_run(os_config):
    """One offload-heavy micro workload with tracing on."""
    collector = SpanCollector()
    with planes(trace=collector):
        machine = build_machine(1, os_config)
        task = machine.spawn_rank(0, 0)

        def body():
            fd = yield from task.syscall("open", "/dev/hfi1_0")
            va = yield from task.syscall("mmap", 1 << 20)
            yield from task.syscall("munmap", va, 1 << 20)
            yield from task.syscall("close", fd)

        machine.sim.run(until=machine.sim.process(body()))
    collector.finalize()
    return collector, machine


def span_times(collector, track_prefix=None):
    """Summed ``cat="syscall"`` span duration per call name (the span is
    named ``linux.<call>`` / ``lwk.<call>``), optionally only on tracks
    under ``track_prefix``."""
    times = {}
    for span in collector.spans:
        if span.cat != "syscall" or (track_prefix is not None and
                                     not span.track.startswith(track_prefix)):
            continue
        call = span.name.split(".", 1)[-1]
        times[call] = times.get(call, 0.0) + span.duration
    return times


def _assert_profiles_equal(from_spans, from_tracer):
    assert set(from_spans) == set(from_tracer.times)
    for name, t in from_tracer.times.items():
        assert from_spans[name] == pytest.approx(t, rel=1e-12)
    assert max(from_spans, key=from_spans.get) == from_tracer.dominant()


def test_span_profile_equals_tracer_profile_linux():
    """On Linux there is one kernel and one tracer; the span sums must
    equal the tracer-counter profile."""
    collector, machine = _traced_micro_run(OSConfig.LINUX)
    _assert_profiles_equal(span_times(collector),
                           profile_from_tracer(machine.tracer))


def test_span_profile_equals_tracer_profile_mckernel():
    """On the multikernel each kernel accounts into its own tracer; the
    track prefix selects the matching span subset: ``machine.tracer`` is
    the LWK's (lwk.* spans), the proxied Linux side (including the
    shadow-unmap of Figure 9) accounts into the Linux kernel's tracer
    and shows up as linux.* spans on the linux track."""
    collector, machine = _traced_micro_run(OSConfig.MCKERNEL)
    _assert_profiles_equal(
        span_times(collector, track_prefix="McKernel/node0/lwk"),
        profile_from_tracer(machine.tracer))
    linux_tracer = machine.nodes[0].linux.tracer
    _assert_profiles_equal(
        span_times(collector, track_prefix="McKernel/node0/linux"),
        profile_from_tracer(linux_tracer))
    assert "munmap_shadow" in span_times(
        collector, track_prefix="McKernel/node0/linux")


def test_track_prefix_narrows_to_one_kernel():
    collector, machine = _traced_micro_run(OSConfig.MCKERNEL)
    lwk_names = {s.name for s in collector.spans if s.cat == "syscall"
                 and s.track.endswith("/lwk")}
    assert lwk_names, "no LWK syscall spans recorded"
    lwk_only = span_times(collector, track_prefix="McKernel/node0/lwk")
    assert lwk_only
    whole = span_times(collector)
    assert sum(lwk_only.values()) <= sum(whole.values())
