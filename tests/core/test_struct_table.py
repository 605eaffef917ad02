"""The table-based struct accessors against a field-by-field reference.

Each case runs the same accesses through ``StructInstance``/``StructView``
and through the reference in ``tests/core/reference.py`` on two
identical heaps, and compares every result or error (type and message),
every monitor call in order, and the heap bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extract import ExtractedField, ExtractedLayout
from repro.core.structs import (ARRAY, CStructDef, CType, Field,
                                StructInstance, StructView)
from repro.hw.memory import SharedHeap

from .reference import FieldByFieldInstance, FieldByFieldView

#: one scalar per size 1-8, unsigned and signed (odd sizes byte-aligned)
SCALARS = [CType(f"{'s' if signed else 'u'}{8 * size}", size,
                 size if size in (1, 2, 4, 8) else 1, signed)
           for size in range(1, 9) for signed in (False, True)]
FIELDS = [Field(f"f_{t.name}", t) for t in SCALARS] + [
    Field("arr_u16", ARRAY(SCALARS[2], 3)),
    Field("arr_s64", ARRAY(SCALARS[15], 2)),
    Field("arr_s24", ARRAY(SCALARS[5], 4)),
]
DEFN = CStructDef("table_rig", FIELDS)
LAYOUT = ExtractedLayout(
    struct_name="table_rig", byte_size=DEFN.size,
    fields=tuple(ExtractedField(f.name, DEFN.offset_of(f.name),
                                f.elem.size, f.count, f.elem.name)
                 for f in FIELDS))
NAMES = [f.name for f in FIELDS] + ["no_such_field"]


class Recorder:
    """A heap monitor that logs every call it gets."""

    def __init__(self):
        self.calls = []

    def annotate(self, kernel, label, atomic):
        self.calls.append(("annotate", kernel, label, atomic))

    def on_access(self, kind, addr, size, heap):
        self.calls.append(("access", kind, addr, size))


OPS = st.lists(st.tuples(
    st.sampled_from(["get", "set", "add"]),
    st.sampled_from(NAMES),
    st.integers(-1, 4),
    st.integers(-(1 << 65), 1 << 65),
    st.booleans()), max_size=25)


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # compared by type and message
        return ("err", type(exc).__name__, str(exc))


def _apply(accessor, op):
    kind, name, index, value, atomic = op
    if kind == "get":
        return _outcome(lambda: accessor.get(name, index, atomic=atomic))
    if kind == "set":
        return _outcome(lambda: accessor.set(name, value, index,
                                             atomic=atomic))
    return _outcome(lambda: accessor.add(name, value, index))


def _run(view, monitored, at_edge, ops, table):
    heap = SharedHeap(256)
    recorder = Recorder()
    if monitored:
        heap.monitor = recorder
    # at the edge, the struct runs past the end of the heap
    addr = heap.end - 8 if at_edge else heap.kmalloc(DEFN.size)
    if view:
        cls = StructView if table else FieldByFieldView
        accessor = cls(LAYOUT, heap, addr)
    else:
        cls = StructInstance if table else FieldByFieldInstance
        accessor = cls(DEFN, heap, addr)
    results = [_apply(accessor, op) for op in ops]
    return results, recorder.calls, bytes(heap._mem)


@pytest.mark.parametrize("at_edge", [False, True], ids=["inside", "edge"])
@pytest.mark.parametrize("monitored", [False, True],
                         ids=["bare", "monitored"])
@pytest.mark.parametrize("view", [False, True],
                         ids=["instance", "view"])
@given(ops=OPS)
@settings(max_examples=60, deadline=None)
def test_table_accessors_match_field_by_field(view, monitored, at_edge,
                                              ops):
    assert _run(view, monitored, at_edge, ops, table=True) \
        == _run(view, monitored, at_edge, ops, table=False)


def test_signed_sizes_round_trip_through_the_table():
    heap = SharedHeap(256)
    inst = StructInstance(DEFN, heap)
    view = StructView(LAYOUT, heap, inst.addr)
    for t in SCALARS:
        name = f"f_{t.name}"
        low = -(1 << (8 * t.size - 1)) if t.signed else 0
        inst.set(name, low)
        assert inst.get(name) == low
        # the LWK view reads the raw word, whatever the C type
        assert view.get(name) == low % (1 << (8 * t.size))


@pytest.mark.parametrize("view", [False, True], ids=["instance", "view"])
def test_errors_name_the_field_and_the_struct(view):
    heap = SharedHeap(256)
    inst = StructInstance(DEFN, heap)
    accessor = StructView(LAYOUT, heap, inst.addr) if view else inst
    with pytest.raises(Exception, match=r"index 3 out of bounds for "
                                        r"arr_u16\[3\]"):
        accessor.get("arr_u16", 3)
    owner = "extracted layout of table_rig" if view else "struct table_rig"
    with pytest.raises(Exception, match=f"{owner} has no field 'nope'"):
        accessor.set("nope", 1)
