"""Property-based tests of frame-allocator invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemory, ReproError
from repro.hw import FrameAllocator

from .reference import ScalarFrameAllocator


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
#: Linux's default, even odds, and nearly always contiguous
CONTIG_PROBS = (0.0, 0.02, 0.5, 0.95)


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
