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


@given(before=st.lists(st.floats(-1e9, 1e9), max_size=5),
       values=st.one_of(
           st.lists(st.integers(1, 10 * 1024), min_size=1, max_size=64),
           st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=64)))
@settings(max_examples=100)
def test_add_many_equals_repeated_add(before, values):
    """On int sizes and on floats: the same count, total (bit for bit),
    min and max as one add() per value."""
    one, many = Accumulator(), Accumulator()
    for value in before:
        one.add(value)
        many.add(value)
    for value in values:
        one.add(value)
    many.add_many(values)
    assert (many.count, many.total, many.min, many.max) == \
        (one.count, one.total, one.min, one.max)
    assert type(many.total) is type(one.total)


def test_add_many_sums_left_to_right():
    """Not sum(): on Python 3.12 and later it compensates, and would give
    1.0 here where one add() per value gives 0.0."""
    acc = Accumulator()
    acc.add_many([1e16, 1.0, -1e16])
    assert acc.total == 0.0
