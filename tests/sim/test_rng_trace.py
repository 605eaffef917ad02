"""Unit tests for named RNG streams and the tracer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngFactory, Tracer


def test_same_key_same_stream():
    f = RngFactory(7)
    a = f.stream("noise", 3).random(5)
    b = f.stream("noise", 3).random(5)
    assert (a == b).all()


def test_different_keys_differ():
    f = RngFactory(7)
    a = f.stream("noise", 3).random(5)
    b = f.stream("noise", 4).random(5)
    assert (a != b).any()


def test_different_seeds_differ():
    a = RngFactory(1).stream("x").random(5)
    b = RngFactory(2).stream("x").random(5)
    assert (a != b).any()


def test_spawn_is_disjoint_from_parent():
    f = RngFactory(7)
    child = f.spawn("node", 0)
    a = f.stream("x").random(5)
    b = child.stream("x").random(5)
    assert (a != b).any()


def test_tracer_counts_and_records():
    t = Tracer()
    t.count("irq")
    t.count("irq", 2)
    t.record("syscall.writev", 1.0)
    t.record("syscall.writev", 3.0)
    assert t.get_count("irq") == 3
    assert t.get_total("syscall.writev") == 4.0
    assert t.get_mean("syscall.writev") == 2.0
    acc = t.accs["syscall.writev"]
    assert (acc.min, acc.max, acc.count) == (1.0, 3.0, 2)


def test_tracer_disabled_is_noop():
    t = Tracer(enabled=False)
    t.count("x")
    t.record("y", 1.0)
    assert t.get_count("x") == 0 and t.get_total("y") == 0.0


def test_tracer_totals_prefix_filter():
    t = Tracer()
    t.record("syscall.writev", 1.0)
    t.record("syscall.ioctl", 2.0)
    t.record("mpi.Wait", 5.0)
    assert t.totals("syscall.") == {"syscall.writev": 1.0, "syscall.ioctl": 2.0}


def test_tracer_merge_folds_statistics():
    a, b = Tracer(), Tracer()
    a.record("x", 1.0)
    b.record("x", 3.0)
    b.count("n", 2)
    a.merge(b)
    assert a.get_total("x") == 4.0
    assert a.accs["x"].max == 3.0
    assert a.get_count("n") == 2


def test_tracer_series_kept_only_when_enabled():
    t = Tracer(keep_series=True)
    t.record("bw", 10.0, t=1.0)
    t.record("bw", 20.0, t=2.0)
    assert t.series["bw"] == [(1.0, 10.0), (2.0, 20.0)]
    t2 = Tracer(keep_series=False)
    t2.record("bw", 10.0, t=1.0)
    assert "bw" not in t2.series


def test_tracer_report_shape():
    t = Tracer()
    t.count("c")
    t.record("a", 2.0)
    rep = t.report()
    assert rep["c"]["count"] == 1.0
    assert rep["a"]["total"] == pytest.approx(2.0)


@given(before=st.lists(st.floats(-1e9, 1e9), max_size=5),
       batch=st.lists(st.floats(-1e9, 1e9), max_size=40))
@settings(max_examples=100)
def test_record_many_equals_repeated_record(before, batch):
    """Same count, total (bit for bit), min and max as one record() per
    value, on an existing accumulator or a fresh one."""
    one, many = Tracer(), Tracer()
    for value in before:
        one.record("x", value)
        many.record("x", value)
    for value in batch:
        one.record("x", value)
    many.record_many("x", batch)
    assert many.accs == one.accs
    assert many.counters == one.counters


def test_record_many_respects_disabled_tracer():
    tracer = Tracer(enabled=False)
    tracer.record_many("x", [1.0, 2.0])
    assert tracer.accs == {}
