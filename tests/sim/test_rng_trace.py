"""Unit tests for named RNG streams and the tracer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngFactory, Tracer
from repro.sim.trace import Accumulator


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


def test_tracer_report_shape():
    t = Tracer()
    t.count("c")
    t.record("a", 2.0)
    rep = t.report()
    assert rep["c"]["count"] == 1.0
    assert rep["a"]["total"] == pytest.approx(2.0)


#: runs of descriptor-sized integer values, with counts up to a 4 MiB
#: message's 1024 pages and beyond
RUNS = st.lists(st.tuples(st.integers(1, 10 * 1024), st.integers(1, 5000)),
                max_size=8)


@given(before=st.lists(st.integers(0, 2**40), max_size=5), runs=RUNS)
@settings(max_examples=100)
def test_record_runs_equals_repeated_record(before, runs):
    """Same count, total (bit for bit), min and max as one record() per
    copy, on an existing accumulator of integers or a fresh one."""
    one, many = Tracer(), Tracer()
    for value in before:
        one.record("x", value)
        many.record("x", value)
    for value, count in runs:
        for _ in range(count):
            one.record("x", value)
    many.record_runs("x", runs)
    assert many.accs == one.accs
    assert many.counters == one.counters


@given(before=st.lists(st.integers(0, 2**51), max_size=2),
       runs=RUNS.filter(bool))
@settings(max_examples=100)
def test_add_runs_equals_repeated_add(before, runs):
    """Integer totals up to 2**53: the same count, total (bit for bit),
    min and max as one add() per copy, and the same types."""
    one, many = Accumulator(), Accumulator()
    for value in before:
        one.add(value)
        many.add(value)
    for value, count in runs:
        for _ in range(count):
            one.add(value)
    many.add_runs(runs)
    assert (many.count, many.total, many.min, many.max) == \
        (one.count, one.total, one.min, one.max)
    assert type(many.total) is type(one.total)
    assert type(many.min) is type(one.min)
