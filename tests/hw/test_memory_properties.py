"""Property-based tests of frame-allocator and page-table invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemory, ReproError
from repro.hw import Extent, FrameAllocator, PageTable
from repro.units import LARGE_PAGE_SIZE, PAGE_SIZE

from .reference import (PerExtentFrameAllocator, ScalarFrameAllocator,
                        per_entry_unmap_range, table_state)


@st.composite
def alloc_free_script(draw):
    """A random interleaving of allocations and frees."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 64)),
            st.tuples(st.just("alloc_contig"), st.integers(1, 64)),
            st.tuples(st.just("free"), st.integers(0, 100)),
        ),
        min_size=1, max_size=60))


@given(script=alloc_free_script())
@settings(max_examples=100)
def test_no_frame_is_ever_double_allocated(script):
    fa = FrameAllocator(2048)
    live = []          # list of extent-lists
    owned = set()      # all currently allocated frame numbers

    for op, arg in script:
        if op == "alloc":
            try:
                extents = fa.alloc(arg)
            except OutOfMemory:
                continue
            live.append(extents)
        elif op == "alloc_contig":
            try:
                extents = [fa.alloc_contiguous(arg)]
            except OutOfMemory:
                continue
            live.append(extents)
        else:
            if not live:
                continue
            extents = live.pop(arg % len(live))
            fa.free(extents)
            for ext in extents:
                for f in range(ext.start, ext.end):
                    owned.discard(f)
            continue
        for ext in extents:
            for f in range(ext.start, ext.end):
                assert f not in owned, f"frame {f} double-allocated"
                owned.add(f)

    # conservation: allocated + free == total
    assert fa.allocated_frames == len(owned)
    assert fa.allocated_frames + fa.free_frames == fa.total_frames
    # free list is sorted, disjoint, non-adjacent
    ivals = fa.free_intervals()
    for (s1, e1), (s2, e2) in zip(ivals, ivals[1:]):
        assert e1 < s2


@given(
    n=st.integers(1, 512),
    contig_prob=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60)
def test_scattered_alloc_conserves_frames(n, contig_prob, seed):
    fa = FrameAllocator(4096)
    rng = np.random.default_rng(seed)
    extents = fa.alloc_scattered(n, rng, contig_prob=contig_prob)
    assert sum(e.count for e in extents) == n
    assert fa.allocated_frames == n
    # no overlap between extents
    seen = set()
    for ext in extents:
        for f in range(ext.start, ext.end):
            assert f not in seen
            seen.add(f)
    fa.free(extents)
    assert fa.allocated_frames == 0
    assert fa.free_intervals() == [(0, 4096)]


#: the contiguity probabilities the reference comparison covers: never,
#: Linux's default, even odds, nearly always and always contiguous
CONTIG_PROBS = (0.0, 0.02, 0.5, 0.95, 1.0)


@st.composite
def scatter_script(draw):
    """Scattered allocations mixed with contiguous ones, frees and
    unrelated draws from the same generator; ``fill`` asks for nearly
    every free frame, which forces the memory-pressure fill."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("scatter"), st.integers(1, 300),
                      st.sampled_from(CONTIG_PROBS)),
            st.tuples(st.just("fill"), st.integers(0, 8),
                      st.sampled_from(CONTIG_PROBS)),
            st.tuples(st.just("contig"), st.integers(1, 64), st.just(0)),
            st.tuples(st.just("free"), st.integers(0, 100), st.just(0)),
            st.tuples(st.just("integers"), st.integers(1, 1000),
                      st.just(0)),
        ),
        min_size=1, max_size=30))


@given(script=scatter_script(), total=st.integers(64, 2048),
       seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_scattered_alloc_matches_per_frame_reference(script, total, seed):
    """Block-drawn ``alloc_scattered`` against one scalar ``random()``
    per draw, on fragmented free lists: the same extents, free list and
    ``allocated_frames``, and the generator left at the same place (the
    next draws and interleaved ``integers()`` draws agree)."""
    sides = []
    for cls in (FrameAllocator, ScalarFrameAllocator):
        sides.append((cls(total), np.random.default_rng(seed), []))
    for op, arg, prob in script:
        outs = []
        for fa, rng, live in sides:
            if op in ("scatter", "fill"):
                n = arg if op == "scatter" else fa.free_frames - arg
                try:
                    got = fa.alloc_scattered(n, rng, contig_prob=prob)
                except (OutOfMemory, ReproError) as exc:
                    got = repr(exc)
                else:
                    live.append(got)
            elif op == "contig":
                try:
                    got = [fa.alloc_contiguous(arg)]
                except OutOfMemory as exc:
                    got = repr(exc)
                else:
                    live.append(got)
            elif op == "free":
                got = live.pop(arg % len(live)) if live else None
                if got is not None:
                    fa.free(got)
            else:
                got = rng.integers(0, arg, size=3).tolist()
            outs.append((got, fa.free_intervals(), fa.allocated_frames,
                         rng.bit_generator.state))
        assert outs[0] == outs[1]
    assert sides[0][1].random(4).tolist() == sides[1][1].random(4).tolist()


@st.composite
def free_request(draw):
    """An allocator state (a free/used mask over its frames) and a free
    request: extents cut from the used runs, in any order, sometimes
    with a bad extent mixed in."""
    base = draw(st.integers(0, 8))
    total = draw(st.integers(1, 40))
    mask = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    pieces = []
    frame = 0
    while frame < total:
        if mask[frame]:
            frame += 1
            continue
        run = 1
        while frame + run < total and not mask[frame + run]:
            run += 1
        # cut the used run into extents and keep some of them
        cut = frame
        while cut < frame + run:
            n = draw(st.integers(1, frame + run - cut))
            if draw(st.booleans()):
                pieces.append((base + cut, n))
            cut += n
        frame += run
    noise = draw(st.lists(st.tuples(st.integers(base - 3, base + total + 3),
                                    st.integers(-1, 5)), max_size=2))
    request = draw(st.permutations(pieces + noise))
    return base, total, mask, request


def _allocator(cls, base, total, mask):
    fa = cls(total, base_frame=base)
    fa._starts, fa._ends, frame = [], [], 0
    while frame < total:
        if not mask[frame]:
            frame += 1
            continue
        end = frame
        while end < total and mask[end]:
            end += 1
        fa._starts.append(base + frame)
        fa._ends.append(base + end)
        frame = end
    fa.allocated_frames = total - sum(mask)
    return fa


@given(case=free_request())
@settings(max_examples=300, deadline=None)
def test_free_merge_matches_per_extent_path(case):
    """Same free list and count as freeing one extent at a time; or the
    same first error, with nothing changed."""
    base, total, mask, request = case
    merged = _allocator(FrameAllocator, base, total, mask)
    reference = _allocator(PerExtentFrameAllocator, base, total, mask)
    before = (merged.free_intervals(), merged.allocated_frames)
    try:
        reference.free([Extent(s, n) for s, n in request])
        expected = None
    except ReproError as exc:
        expected = str(exc)
    try:
        merged.free([Extent(s, n) for s, n in request])
        got = None
    except ReproError as exc:
        got = str(exc)
    assert got == expected
    if expected is None:
        assert merged.free_intervals() == reference.free_intervals()
        assert merged.allocated_frames == reference.allocated_frames
    else:
        assert (merged.free_intervals(), merged.allocated_frames) == before


@st.composite
def unmap_case(draw):
    """A page table of 4KB and 2MB entries with gaps, and a range."""
    sizes = draw(st.lists(st.sampled_from([0, PAGE_SIZE, PAGE_SIZE,
                                           LARGE_PAGE_SIZE]),
                          min_size=1, max_size=12))
    vaddrs = list(_table(sizes)._vaddrs)
    span = sum(sizes) // PAGE_SIZE + 8
    start = draw(st.one_of(st.integers(0, span).map(PAGE_SIZE.__mul__),
                           st.sampled_from(vaddrs or [0])))
    length = draw(st.integers(0, span)) * PAGE_SIZE
    return sizes, start, length


def _table(sizes):
    pt = PageTable()
    va = 0
    for i, size in enumerate(sizes):
        if size == 0:  # a hole of one 4KB page
            va += PAGE_SIZE
            continue
        va = -(-va // size) * size
        pt.map_page(va, (i + 1) * LARGE_PAGE_SIZE, size)
        va += size
    return pt


@given(case=unmap_case())
@settings(max_examples=200, deadline=None)
def test_unmap_range_matches_per_entry_path(case):
    """Same released extents and table, or the same error with the same
    entries already removed."""
    sizes, start, length = case
    sliced, reference = _table(sizes), _table(sizes)
    outcomes = []
    for unmap in (sliced.unmap_range,
                  lambda v, n: per_entry_unmap_range(reference, v, n)):
        try:
            outcomes.append(("ok", [(e.start, e.count)
                                    for e in unmap(start, length)]))
        except ReproError as exc:
            outcomes.append(("err", str(exc)))
    assert outcomes[0] == outcomes[1]
    assert table_state(sliced) == table_state(reference)


@st.composite
def fragmented_sweep(draw):
    """A free/used mask made of runs (many one-frame holes, some long
    intervals) and scattered allocations on it; ``fill`` leaves
    ``arg`` frames free, so the sweep runs out of intervals and takes
    the rest from its holes."""
    mask = []
    for free, length in draw(st.lists(
            st.tuples(st.booleans(),
                      st.one_of(st.just(1), st.integers(1, 60))),
            min_size=1, max_size=40)):
        mask += [free] * length
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["scatter", "fill"]), st.integers(0, 40),
                  st.sampled_from(CONTIG_PROBS)),
        min_size=1, max_size=5))
    return mask, ops


@given(case=fragmented_sweep(), seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_scattered_sweep_matches_per_frame_reference_on_fragments(case,
                                                                  seed):
    """The numpy sweep against the per-frame loop, starting from free
    lists of many intervals (one-frame holes among them), at every
    contiguity probability, up to filling memory: the same extents, free
    list, ``allocated_frames`` and generator state after every call."""
    mask, ops = case
    sides = [(_allocator(cls, 0, len(mask), mask), np.random.default_rng(seed))
             for cls in (FrameAllocator, ScalarFrameAllocator)]
    for op, arg, prob in ops:
        outs = []
        for fa, rng in sides:
            n = arg if op == "scatter" else fa.free_frames - arg
            try:
                got = list(fa.alloc_scattered(n, rng, contig_prob=prob))
            except (OutOfMemory, ReproError) as exc:
                got = repr(exc)
            outs.append((got, fa.free_intervals(), fa.allocated_frames,
                         rng.bit_generator.state))
        assert outs[0] == outs[1]
