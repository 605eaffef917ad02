"""Tests for SDMA descriptor construction — the 4KB vs 10KB asymmetry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DriverError
from repro.hw import SdmaDescriptor
from repro.linux.hfi1.sdma import (build_descs_from_pages,
                                   build_descs_from_spans, page_spans,
                                   split_spans_for_tids)
from repro.units import KiB, PAGE_SIZE


def test_linux_style_one_desc_per_page():
    pages = [i * PAGE_SIZE for i in range(16)]  # physically contiguous!
    descs = build_descs_from_pages(pages, 0, 16 * PAGE_SIZE)
    # contiguity is invisible: still 16 descriptors of 4KB
    assert len(descs) == 16
    assert all(d.nbytes == PAGE_SIZE for d in descs)


def test_linux_style_never_exceeds_page_size():
    pages = [i * PAGE_SIZE for i in range(4)]
    descs = build_descs_from_pages(pages, 0, 4 * PAGE_SIZE,
                                   max_request=10 * KiB)
    assert max(d.nbytes for d in descs) == PAGE_SIZE


def test_linux_style_handles_offset_and_partial_tail():
    pages = [0x10000, 0x11000, 0x99000]
    descs = build_descs_from_pages(pages, 0x800, 2 * PAGE_SIZE)
    assert descs[0].paddr == 0x10800 and descs[0].nbytes == PAGE_SIZE - 0x800
    assert sum(d.nbytes for d in descs) == 2 * PAGE_SIZE


def test_linux_style_short_page_list_rejected():
    with pytest.raises(DriverError):
        build_descs_from_pages([0], 0, 2 * PAGE_SIZE)


def test_pico_style_coalesces_to_hardware_max():
    spans = [(0x100000, 40 * KiB)]
    descs = build_descs_from_spans(spans, 10 * KiB)
    assert [d.nbytes for d in descs] == [10 * KiB] * 4
    assert descs[1].paddr == 0x100000 + 10 * KiB


def test_pico_style_respects_span_boundaries():
    spans = [(0x100000, 12 * KiB), (0x900000, 4 * KiB)]
    descs = build_descs_from_spans(spans, 10 * KiB)
    assert [d.nbytes for d in descs] == [10 * KiB, 2 * KiB, 4 * KiB]


def test_desc_count_ratio_for_4mb():
    """The Figure 4 mechanism: 1024 descriptors vs 410 for 4MB."""
    total = 4 * 1024 * KiB
    pages = [i * PAGE_SIZE for i in range(total // PAGE_SIZE)]
    linux = build_descs_from_pages(pages, 0, total)
    pico = build_descs_from_spans([(0, total)], 10 * KiB)
    assert len(linux) == 1024
    assert len(pico) == -(-total // (10 * KiB))  # 410
    assert len(pico) < 0.45 * len(linux)


def _pairs(chain):
    """A chain's spans as ``(paddr, nbytes)`` pairs."""
    return [(d.paddr, d.nbytes) for d in chain]


def test_split_spans_for_tids():
    spans = [(0, 5 * KiB), (0x100000, 3 * KiB)]
    out = split_spans_for_tids(spans, 2 * KiB)
    assert _pairs(out) == [(0, 2 * KiB), (2 * KiB, 2 * KiB),
                           (4 * KiB, 1 * KiB), (0x100000, 2 * KiB),
                           (0x100000 + 2 * KiB, 1 * KiB)]


@pytest.mark.parametrize("max_span", [0, -4 * KiB])
def test_split_spans_for_tids_refuses_a_non_positive_max_span(max_span):
    """A cut of no bytes never ends: refused before any span is cut."""
    with pytest.raises(DriverError, match=f"bad max TID span {max_span}"):
        split_spans_for_tids([(0, 4 * KiB)], max_span)


@pytest.mark.parametrize("spans", [[(0, 0)], [(0, 4 * KiB), (0x9000, -1)]],
                         ids=["empty", "negative"])
def test_split_spans_for_tids_refuses_a_non_positive_span(spans):
    """A span of no bytes is refused, not dropped."""
    with pytest.raises(DriverError, match="bad span length"):
        split_spans_for_tids(spans, 2 * KiB)


def test_bad_inputs_rejected():
    with pytest.raises(DriverError):
        build_descs_from_pages([0], 0, 0)
    with pytest.raises(DriverError):
        build_descs_from_pages([0], PAGE_SIZE, KiB)
    with pytest.raises(DriverError):
        build_descs_from_spans([(0, 0)], 10 * KiB)
    with pytest.raises(DriverError):
        build_descs_from_spans([(0, KiB)], 0)


@given(
    lengths=st.lists(st.integers(1, 64 * KiB), min_size=1, max_size=12),
    max_request=st.sampled_from([2 * KiB, 4 * KiB, 10 * KiB]),
)
@settings(max_examples=80)
def test_span_descs_partition_the_bytes(lengths, max_request):
    """Property: descriptors exactly cover the spans, none oversized."""
    base = 0
    spans = []
    for ln in lengths:
        spans.append((base, ln))
        base += ln + 0x100000  # keep spans non-adjacent
    descs = build_descs_from_spans(spans, max_request)
    assert sum(d.nbytes for d in descs) == sum(lengths)
    assert all(0 < d.nbytes <= max_request for d in descs)
    # descriptors are ordered and disjoint within each span
    for (pa, ln) in spans:
        inside = [d for d in descs if pa <= d.paddr < pa + ln]
        assert sum(d.nbytes for d in inside) == ln


def _per_page_descs(pages, offset, length):
    """The per-page loop ``build_descs_from_pages`` replaced (at its
    default ``max_request`` of one page)."""
    descs, remaining = [], length
    for i, pa in enumerate(pages):
        if remaining <= 0:
            break
        start = offset if i == 0 else 0
        chunk = min(PAGE_SIZE - start, remaining)
        descs.append(SdmaDescriptor(pa + start, chunk))
        remaining -= chunk
    assert remaining == 0
    return descs


def _per_page_tid_spans(pages, offset, length):
    """The per-page loop ``Hfi1Driver._tid_update`` used for its spans."""
    spans, remaining = [], length
    for i, pa in enumerate(pages):
        start = offset if i == 0 else 0
        chunk = min(PAGE_SIZE - start, remaining)
        spans.append((pa + start, chunk))
        remaining -= chunk
    return spans


@pytest.mark.parametrize("offset", [0, 2048, 4095])
@pytest.mark.parametrize("length", [1, "rest_of_page", PAGE_SIZE,
                                    2 * PAGE_SIZE, 3 * PAGE_SIZE,
                                    16 * PAGE_SIZE + 5])
def test_bulk_build_matches_per_page_loop(offset, length):
    """One-page buffers and exact page multiples, at aligned and
    unaligned offsets; the page list is scattered and has spare pages."""
    if length == "rest_of_page":
        length = PAGE_SIZE - offset
    npages = -(-(offset + length) // PAGE_SIZE)
    pages = [(i * 37 % 101) * PAGE_SIZE for i in range(npages + 2)]
    want = _per_page_descs(pages, offset, length)
    assert list(build_descs_from_pages(pages, offset, length)) == want
    assert list(build_descs_from_pages(pages, offset, length,
                                       10 * KiB)) == want
    gup = pages[:npages]  # get_user_pages() returns exactly the range
    assert _pairs(page_spans(gup, offset, length)) == \
        _per_page_tid_spans(gup, offset, length)


@given(offset=st.integers(0, PAGE_SIZE - 1),
       length=st.integers(1, 40 * PAGE_SIZE))
@settings(max_examples=80)
def test_bulk_build_matches_per_page_loop_anywhere(offset, length):
    npages = -(-(offset + length) // PAGE_SIZE)
    pages = [(i * 37 % 101) * PAGE_SIZE for i in range(npages)]
    assert list(build_descs_from_pages(pages, offset, length)) == \
        _per_page_descs(pages, offset, length)
    assert _pairs(page_spans(pages, offset, length)) == \
        _per_page_tid_spans(pages, offset, length)


def test_short_page_list_reports_covered_bytes():
    with pytest.raises(DriverError, match="covers only 6144 of 12288"):
        build_descs_from_pages([0, PAGE_SIZE], 2048, 3 * PAGE_SIZE)


def test_sub_page_max_request_is_a_typed_error():
    """Below PAGE_SIZE the Linux model has no meaning: it must say so up
    front instead of emitting truncated descriptors."""
    with pytest.raises(DriverError, match="max_request 2048"):
        build_descs_from_pages([0, PAGE_SIZE], 0, 2 * PAGE_SIZE,
                               max_request=2 * KiB)


def _per_chunk_descs(spans, max_request):
    """The per-chunk loop ``build_descs_from_spans`` replaced."""
    descs = []
    for pa, nbytes in spans:
        off = 0
        while off < nbytes:
            chunk = min(max_request, nbytes - off)
            descs.append(SdmaDescriptor(pa + off, chunk))
            off += chunk
    return descs


@given(spans=st.lists(st.tuples(st.integers(0, 1 << 30),
                                st.integers(1, 64 * KiB)),
                      max_size=12),
       max_request=st.integers(KiB, 12 * KiB))
@settings(max_examples=80, deadline=None)
def test_span_chain_matches_per_chunk_loop(spans, max_request):
    chain = build_descs_from_spans(spans, max_request)
    assert list(chain) == _per_chunk_descs(spans, max_request)
    assert len(chain.paddrs) == len(chain.sizes) == len(chain)
