"""Unit and property tests for page tables and physical-span iteration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFault, ReproError
from repro.hw import Extent, PageTable
from repro.units import LARGE_PAGE_SIZE, PAGE_SIZE

from .reference import PerPageTable, per_page_map_extents, table_state


def test_translate_basic():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    assert pt.translate(0x10000) == 0x40000
    assert pt.translate(0x10FFF) == 0x40FFF


def test_unmapped_access_faults():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    with pytest.raises(PageFault):
        pt.translate(0x11000)
    with pytest.raises(PageFault):
        pt.translate(0xFFFF)


def test_large_page_mapping():
    pt = PageTable("test")
    pt.map_page(2 * LARGE_PAGE_SIZE, 4 * LARGE_PAGE_SIZE, LARGE_PAGE_SIZE)
    assert pt.translate(2 * LARGE_PAGE_SIZE + 12345) == 4 * LARGE_PAGE_SIZE + 12345
    assert len(pt) == 1  # one entry, not 512


def test_overlap_rejected():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    with pytest.raises(ReproError):
        pt.map_page(0x10000, 0x50000)
    pt2 = PageTable("test")
    pt2.map_page(0, 0, LARGE_PAGE_SIZE)
    with pytest.raises(ReproError):
        pt2.map_page(PAGE_SIZE, 0x99000)  # inside the large page


def test_unaligned_mapping_rejected():
    pt = PageTable("test")
    with pytest.raises(ReproError):
        pt.map_page(0x10001, 0x40000)
    with pytest.raises(ReproError):
        pt.map_page(PAGE_SIZE, LARGE_PAGE_SIZE // 2, LARGE_PAGE_SIZE)


def test_phys_spans_merges_contiguous_pages():
    pt = PageTable("test")
    # three virtually and physically consecutive 4K pages
    for i in range(3):
        pt.map_page(0x10000 + i * PAGE_SIZE, 0x40000 + i * PAGE_SIZE)
    spans = pt.phys_spans(0x10000, 3 * PAGE_SIZE)
    assert spans == [(0x40000, 3 * PAGE_SIZE)]


def test_phys_spans_splits_discontiguous_pages():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    pt.map_page(0x11000, 0x90000)   # physically elsewhere
    spans = pt.phys_spans(0x10000, 2 * PAGE_SIZE)
    assert spans == [(0x40000, PAGE_SIZE), (0x90000, PAGE_SIZE)]


def test_phys_spans_partial_range():
    pt = PageTable("test")
    pt.map_page(0, 2 * LARGE_PAGE_SIZE, LARGE_PAGE_SIZE)
    spans = pt.phys_spans(0x800, 0x1000)
    assert spans == [(2 * LARGE_PAGE_SIZE + 0x800, 0x1000)]


def test_pages_view_expands_large_pages():
    """get_user_pages() sees base pages even inside a 2MB mapping."""
    pt = PageTable("test")
    pt.map_page(0, 0x200000, LARGE_PAGE_SIZE)
    pages = pt.pages(0, 16 * PAGE_SIZE)
    assert pages == [0x200000 + i * PAGE_SIZE for i in range(16)]


def test_map_extents_with_large_pages():
    pt = PageTable("test")
    frames = LARGE_PAGE_SIZE // PAGE_SIZE
    # a contiguous, aligned physical run -> 1 large page + ragged 4K tail
    end = pt.map_extents(0, [Extent(frames, frames + 3)],
                         use_large_pages=True)
    assert end == LARGE_PAGE_SIZE + 3 * PAGE_SIZE
    assert len(pt) == 1 + 3
    assert pt.phys_spans(0, end) == [(LARGE_PAGE_SIZE, end)]


def test_map_extents_without_large_pages():
    pt = PageTable("test")
    pt.map_extents(0, [Extent(512, 512)], use_large_pages=False)
    assert len(pt) == 512


def test_rejected_map_extents_installs_nothing():
    """A range that runs into an existing entry is refused whole: the
    pages before the overlap are not left mapped (nobody would own their
    frames), and the error names the first overlapping page."""
    pt = PageTable("test")
    pt.map_page(0x3000, 0x90000)
    with pytest.raises(ReproError, match="mapping overlap at 0x3000"):
        pt.map_extents(0x1000, [Extent(16, 4)])
    assert len(pt) == 1
    with pytest.raises(PageFault):
        pt.lookup(0x1000)
    # a large page ahead of the range, and one reaching into it from
    # the left
    pt.map_page(LARGE_PAGE_SIZE, 0, LARGE_PAGE_SIZE)
    with pytest.raises(ReproError, match="mapping overlap at 0x200000"):
        pt.map_extents(LARGE_PAGE_SIZE - PAGE_SIZE, [Extent(40, 2)])
    with pytest.raises(ReproError, match="mapping overlap at 0x3ff000"):
        pt.map_extents(2 * LARGE_PAGE_SIZE - PAGE_SIZE, [Extent(40, 2)])
    assert len(pt) == 2


def test_unmap_returns_physical_extents():
    pt = PageTable("test")
    pt.map_extents(0x10000, [Extent(7, 2)], pinned=True)
    released = pt.unmap_range(0x10000, 2 * PAGE_SIZE)
    assert released == [Extent(7, 1), Extent(8, 1)]
    with pytest.raises(PageFault):
        pt.translate(0x10000)


def test_partial_unmap_of_large_page_rejected():
    pt = PageTable("test")
    pt.map_page(0, 0, LARGE_PAGE_SIZE)
    with pytest.raises(ReproError):
        pt.unmap_range(0, PAGE_SIZE)


def test_pinned_flag():
    pt = PageTable("test")
    pt.map_page(0, 0, PAGE_SIZE, pinned=True)
    pt.map_page(PAGE_SIZE, 0x10000, PAGE_SIZE, pinned=False)
    assert pt.is_pinned(0, PAGE_SIZE)
    assert not pt.is_pinned(0, 2 * PAGE_SIZE)


@given(
    n_pages=st.integers(1, 64),
    seed=st.integers(0, 1000),
    offset=st.integers(0, PAGE_SIZE - 1),
)
@settings(max_examples=60)
def test_phys_spans_cover_exactly_the_requested_bytes(n_pages, seed, offset):
    """Span lists always partition the byte range, whatever the layout."""
    import numpy as np
    rng = np.random.default_rng(seed)
    pt = PageTable("prop")
    # random physical placement: shuffled frames, some adjacent by chance
    frames = rng.permutation(n_pages * 4)[:n_pages]
    for i, f in enumerate(sorted(frames[: n_pages])):
        pt.map_page(i * PAGE_SIZE, int(f) * PAGE_SIZE)
    length = n_pages * PAGE_SIZE - offset
    spans = pt.phys_spans(offset, length)
    assert sum(nbytes for _, nbytes in spans) == length
    # spans are maximal: consecutive spans are never physically adjacent
    for (p1, n1), (p2, _) in zip(spans, spans[1:]):
        assert p1 + n1 != p2


def _per_page_pages(pt, vaddr, length):
    """The per-page walk ``pages()`` replaced: one translate per 4KB."""
    out = []
    va = vaddr - vaddr % PAGE_SIZE
    while va < vaddr + length:
        out.append(pt.translate(va))
        va += PAGE_SIZE
    return out


def _per_page_spans(pt, vaddr, length):
    """The lookup-per-mapping walk ``phys_spans()`` replaced."""
    spans = []
    va, end = vaddr, vaddr + length
    while va < end:
        m = pt.lookup(va)
        pa = m.paddr + (va - m.vaddr)
        chunk = min(m.vend, end) - va
        if spans and spans[-1][0] + spans[-1][1] == pa:
            spans[-1] = (spans[-1][0], spans[-1][1] + chunk)
        else:
            spans.append((pa, chunk))
        va += chunk
    return spans


def _per_mapping_pinned(pt, vaddr, length):
    """The lookup-per-mapping walk ``is_pinned()`` replaced."""
    va, end = vaddr, vaddr + length
    while va < end:
        m = pt.lookup(va)
        if not m.pinned:
            return False
        va = m.vend
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PageFault as fault:
        return ("fault", fault.addr)


#: one layout item: a 4KB page, a 2MB page, or a hole of n 4KB pages
_ITEM = st.one_of(st.tuples(st.just("4k"), st.integers(0, 4095)),
                  st.tuples(st.just("2m"), st.integers(0, 63)),
                  st.tuples(st.just("hole"), st.integers(1, 3)))


@given(items=st.lists(_ITEM, min_size=1, max_size=12),
       start=st.integers(0, 8 * LARGE_PAGE_SIZE),
       length=st.integers(0, 3 * LARGE_PAGE_SIZE))
@settings(max_examples=150)
def test_range_walk_matches_per_page_walk(items, start, length):
    """pages(), phys_spans() and is_pinned() equal the per-page
    references on mixed 4KB/2MB layouts with holes, unaligned ends
    included, and fault at the same vaddr when the range runs into a
    hole."""
    pt = PageTable("prop")
    va = 0
    for kind, frame in items:
        if kind == "hole":
            va += frame * PAGE_SIZE
        elif kind == "4k":
            pt.map_page(va, frame * PAGE_SIZE, pinned=frame % 2 == 0)
            va += PAGE_SIZE
        else:
            va += -va % LARGE_PAGE_SIZE
            pt.map_page(va, (64 + frame) * LARGE_PAGE_SIZE, LARGE_PAGE_SIZE)
            va += LARGE_PAGE_SIZE
    start %= va + 1
    assert (_outcome(pt.pages, start, length)
            == _outcome(_per_page_pages, pt, start, length))
    assert (_outcome(pt.phys_spans, start, length)
            == _outcome(_per_page_spans, pt, start, length))
    assert (_outcome(pt.is_pinned, start, length)
            == _outcome(_per_mapping_pinned, pt, start, length))


#: one extent: (start in 2MB frames, frame offset, frame count)
_EXTENT = st.tuples(st.integers(0, 40),
                    st.one_of(st.just(0), st.integers(0, 511)),
                    st.integers(0, 1100))
#: one existing entry: a 4KB page or a 2MB page at a slot; the mapped
#: range overlaps about a third of them
_ENTRY = st.one_of(st.tuples(st.just(PAGE_SIZE), st.integers(0, 12287)),
                   st.tuples(st.just(LARGE_PAGE_SIZE), st.integers(0, 23)))


@given(existing=st.lists(_ENTRY, max_size=4),
       extents=st.lists(_EXTENT, max_size=4),
       page=st.integers(0, 3071),
       align=st.sampled_from(["4k", "2m", "match", "odd"]),
       large=st.booleans(), pinned=st.booleans())
@settings(max_examples=200, deadline=None)
def test_map_extents_matches_per_page_map_page(existing, extents, page,
                                               align, large, pinned):
    """``map_extents`` installs exactly the 4KB and 2MB entries one
    ``map_page`` call per page would, with large pages on and off; a
    rejected range raises the first failing page's error and installs
    nothing, where the per-page loop left the pages before it mapped."""
    tables = PageTable("new"), PageTable("ref")
    for pt in tables:
        for size, slot in existing:
            try:
                pt.map_page(slot * size, (4096 + slot) * size, size)
            except ReproError:
                pass
    exts = [Extent(big * 512 + off, count) for big, off, count in extents]
    vaddr = page * PAGE_SIZE
    if align in ("2m", "match"):
        vaddr -= vaddr % LARGE_PAGE_SIZE
    if align == "match" and exts:
        # va and pa 2MB-congruent: a 4KB head, then large pages
        vaddr += exts[0].start * PAGE_SIZE % LARGE_PAGE_SIZE
    elif align == "odd":
        vaddr += 0x100
    new, ref = tables
    before = table_state(new)
    outcomes = []
    for pt, fn in ((new, PageTable.map_extents), (ref, per_page_map_extents)):
        try:
            outcomes.append(fn(pt, vaddr, exts, pinned=pinned,
                               use_large_pages=large))
        except ReproError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], str):
        assert table_state(new) == before
    else:
        assert table_state(new) == table_state(ref)


#: one page-table operation: its name and four small integers it reads
_OP = st.tuples(
    st.sampled_from(["map_page", "map_page", "map_extents", "map_extents",
                     "unmap_range", "lookup", "pages", "phys_spans",
                     "is_pinned"]),
    st.integers(0, 1023), st.integers(0, 40), st.integers(0, 3),
    st.booleans())


def _apply(pt, entries, op, a, b, c, flag):
    """Run one scripted operation on ``pt``; the value or the error.
    Three in four unmaps and queries start inside one of ``entries``
    (the table's entries before the step), the rest anywhere."""
    if op not in ("map_page", "map_extents") and entries and a % 4:
        vaddr, _pa, size, _pinned = entries[a % len(entries)]
        va = vaddr + (a * 0x1234 if c == 3 else a * PAGE_SIZE) % size
    else:
        va = a * PAGE_SIZE + (0x800 if c == 3 else 0)
    try:
        if op == "map_page":
            size = LARGE_PAGE_SIZE if c == 0 else PAGE_SIZE
            return pt.map_page(va - va % size, (8192 + b) * size, size, flag)
        if op == "map_extents":
            exts = [Extent(4096 + b * 512 + i * 600, 1 + (b + i) % 520)
                    for i in range(c + 1)]
            return pt.map_extents(va, exts, pinned=flag,
                                  use_large_pages=c % 2 == 0)
        if op == "unmap_range":
            return [(e.start, e.count)
                    for e in pt.unmap_range(va, b * 64 * PAGE_SIZE)]
        if op == "lookup":
            m = pt.lookup(va)
            return (m.vaddr, m.paddr, m.page_size, m.pinned, pt.translate(va))
        length = b * 1100 * (1 + c) - (PAGE_SIZE if c == 2 else 0)
        return getattr(pt, op)(va, length)
    except PageFault as fault:
        return ("fault", fault.addr)
    except ReproError as exc:
        return ("error", str(exc))


@given(script=st.lists(_OP, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_column_table_matches_per_page_reference(script):
    """Random scripts of 4KB and 2MB ``map_page`` calls, ``map_extents``
    with large pages on and off (at unaligned addresses too),
    ``unmap_range`` (whole and partial), ``lookup``/``translate``,
    ``pages``, ``phys_spans`` and ``is_pinned``: every value,
    ``PageFault`` address, overlap, alignment and partial-unmap error,
    and the table after each step, equal the per-page reference's."""
    table, ref = PageTable("prop"), PerPageTable("prop")
    for op in script:
        entries = table_state(table)
        assert _apply(table, entries, *op) == _apply(ref, entries, *op), op
        assert table_state(table) == ref.state()
