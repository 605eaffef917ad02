"""Tests for rendezvous window math and flow state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.psm.transfer import (RecvFlow, Rts, SendFlow, window_count,
                                window_extent)
from repro.units import KiB


def test_window_count():
    assert window_count(1, 256 * KiB) == 1
    assert window_count(256 * KiB, 256 * KiB) == 1
    assert window_count(256 * KiB + 1, 256 * KiB) == 2
    assert window_count(4 * 1024 * KiB, 256 * KiB) == 16


def test_window_count_rejects_nonpositive():
    with pytest.raises(ReproError):
        window_count(0, 256 * KiB)


def test_window_extent():
    total, w = 600 * KiB, 256 * KiB
    assert window_extent(total, w, 0) == (0, 256 * KiB)
    assert window_extent(total, w, 1) == (256 * KiB, 256 * KiB)
    assert window_extent(total, w, 2) == (512 * KiB, 88 * KiB)
    with pytest.raises(ReproError):
        window_extent(total, w, 3)


@given(total=st.integers(1, 64 * 1024 * 1024),
       wsize=st.sampled_from([64 * KiB, 256 * KiB, 1024 * KiB]))
@settings(max_examples=100)
def test_windows_partition_the_message(total, wsize):
    n = window_count(total, wsize)
    extents = [window_extent(total, wsize, w) for w in range(n)]
    assert extents[0][0] == 0
    assert sum(ln for _, ln in extents) == total
    for (o1, l1), (o2, _) in zip(extents, extents[1:]):
        assert o1 + l1 == o2
    assert all(0 < ln <= wsize for _, ln in extents)


def test_send_flow_completion_accounting():
    flow = SendFlow(msg_id=("a", 0), buffer=0, total=512 * KiB, windows=2,
                    request=None)
    assert not flow.window_complete(1)
    # a window resubmitted on a re-CTS completes twice: counted once
    assert not flow.window_complete(1)
    assert flow.window_complete(0)
    assert flow.done_windows == {0, 1}


def test_recv_flow_arrival_accounting():
    rts = Rts(("a", 0), (0, 0), "t", 512 * KiB)
    flow = RecvFlow(rts=rts, buffer=0, request=None, windows=2)
    assert not flow.all_arrived()
    flow.arrived = 2
    assert flow.all_arrived()
