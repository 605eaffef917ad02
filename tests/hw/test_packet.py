"""``hw.hfi.Packet``: an immutable tuple-backed record.

The reference below is the packet as a frozen dataclass with the same
fields in the same order.  Two packets must compare and hash equal
exactly when the two references do, and print the same; a field
cannot be assigned, and ``replace`` makes a changed copy.
"""

from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Optional, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw import hfi


@dataclass(frozen=True)
class Packet:
    """Reference: the packet as a frozen dataclass."""

    kind: str
    src_node: int
    dst_node: int
    dst_ctxt: int
    nbytes: int
    tag: object = None
    payload: object = None
    tids: Tuple[int, ...] = ()
    seq: object = None
    csum: Optional[int] = None
    trace: object = None


FIELDS = ("kind", "src_node", "dst_node", "dst_ctxt", "nbytes", "tag",
          "payload", "tids", "seq", "csum", "trace")

#: small domains, so that drawn pairs are often equal
fields = st.fixed_dictionaries({
    "kind": st.sampled_from(("eager", "cts")),
    "src_node": st.integers(0, 1),
    "dst_node": st.integers(0, 1),
    "dst_ctxt": st.integers(0, 1),
    "nbytes": st.sampled_from((8, 4096)),
    "tag": st.sampled_from((None, ("t", 0), ("t", 1))),
    "payload": st.sampled_from((None, "data", 1.5)),
    "tids": st.sampled_from(((), (1, 2))),
    "seq": st.sampled_from((None, (0, 1))),
    "csum": st.sampled_from((None, 7)),
    "trace": st.sampled_from((None, "span")),
})


def test_same_fields_in_the_same_order():
    assert hfi.Packet._fields == FIELDS
    pkt = hfi.Packet("eager", 0, 1, 2, 8)
    assert [getattr(pkt, f) for f in FIELDS] == [
        "eager", 0, 1, 2, 8, None, None, (), None, None, None]


@given(fields, fields)
def test_equality_and_hash_match_the_dataclass(a, b):
    new_a, new_b = hfi.Packet(**a), hfi.Packet(**b)
    ref_a, ref_b = Packet(**a), Packet(**b)
    assert (new_a == new_b) == (ref_a == ref_b)
    assert (new_a != new_b) == (ref_a != ref_b)
    assert hash(new_a) == hash(ref_a)
    assert repr(new_a) == repr(ref_a)


def test_assigning_a_field_raises():
    pkt = hfi.Packet(kind="eager", src_node=0, dst_node=1, dst_ctxt=0,
                     nbytes=8)
    with pytest.raises(AttributeError):
        pkt.nbytes = 16
    with pytest.raises(AttributeError):
        pkt.trace = "span"
    assert pkt.nbytes == 8 and pkt.trace is None


@given(fields, fields)
def test_replace_returns_a_new_packet(a, changes):
    del changes["kind"]
    pkt = hfi.Packet(**a)
    new = pkt.replace(**changes)
    assert isinstance(new, hfi.Packet)
    assert repr(new) == repr(dataclass_replace(Packet(**a), **changes))
    assert pkt == hfi.Packet(**a)       # the original is untouched
    with pytest.raises(ValueError):
        pkt.replace(no_such_field=1)
