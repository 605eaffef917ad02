"""Unit tests for the frame allocator and the shared kernel heap."""

import numpy as np
import pytest

from repro.config import ALL_CONFIGS
from repro.errors import OutOfMemory, ReproError
from repro.experiments import build_machine
from repro.hw import Extent, FrameAllocator, SharedHeap


# --- FrameAllocator ---------------------------------------------------------

def test_contiguous_alloc_returns_single_run():
    fa = FrameAllocator(1024)
    ext = fa.alloc_contiguous(100)
    assert ext.count == 100
    assert fa.free_frames == 924


def test_contiguous_alloc_respects_alignment():
    fa = FrameAllocator(4096)
    fa.alloc_contiguous(3)  # misalign the free list head
    ext = fa.alloc_contiguous(512, align=512)
    assert ext.start % 512 == 0


def test_contiguous_alloc_fails_when_fragmented():
    fa = FrameAllocator(100)
    keep = fa.alloc_contiguous(50)
    hole_makers = [fa.alloc_contiguous(1) for _ in range(50)]
    fa.free([keep])
    # largest run is 50 -> a 60-frame contiguous alloc must fail
    with pytest.raises(OutOfMemory):
        fa.alloc_contiguous(60)
    fa.free(hole_makers)
    assert fa.alloc_contiguous(100).count == 100


def test_alloc_splits_across_free_intervals():
    fa = FrameAllocator(100)
    a = fa.alloc_contiguous(40)       # [0,40)
    b = fa.alloc_contiguous(40)       # [40,80)
    fa.free([a])                      # free [0,40), keep [80,100) free
    extents = fa.alloc(50)
    assert sum(e.count for e in extents) == 50
    assert len(extents) == 2
    fa.free([b])


def test_alloc_overcommit_rejected():
    fa = FrameAllocator(10)
    with pytest.raises(OutOfMemory):
        fa.alloc(11)


def test_double_free_detected():
    fa = FrameAllocator(100)
    ext = fa.alloc_contiguous(10)
    fa.free([ext])
    with pytest.raises(ReproError):
        fa.free([ext])


def test_free_merges_intervals():
    fa = FrameAllocator(100)
    a = fa.alloc_contiguous(30)
    b = fa.alloc_contiguous(30)
    c = fa.alloc_contiguous(30)
    fa.free([a])
    fa.free([c])
    fa.free([b])  # middle free must merge everything back
    assert fa.free_intervals() == [(0, 100)]


def test_scattered_alloc_is_fragmented():
    fa = FrameAllocator(64 * 1024)
    rng = np.random.default_rng(1)
    extents = fa.alloc_scattered(1024, rng, contig_prob=0.02)
    assert sum(e.count for e in extents) == 1024
    mean_run = 1024 / len(extents)
    assert mean_run < 1.5  # almost every frame is its own extent


def test_scattered_alloc_with_high_contig_prob_coalesces():
    fa = FrameAllocator(64 * 1024)
    rng = np.random.default_rng(2)
    extents = fa.alloc_scattered(1024, rng, contig_prob=0.95)
    assert sum(e.count for e in extents) == 1024
    assert 1024 / len(extents) > 5  # long runs dominate


def test_scattered_alloc_overcommit_rejected():
    fa = FrameAllocator(10)
    with pytest.raises(OutOfMemory):
        fa.alloc_scattered(11, np.random.default_rng(0))


def test_extent_byte_range():
    assert Extent(2, 3).byte_range(4096) == (8192, 12288)


# --- SharedHeap ---------------------------------------------------------------

def test_kmalloc_roundtrip():
    heap = SharedHeap(4096, base=0x1000)
    addr = heap.kmalloc(64)
    assert heap.contains(addr)
    heap.write(addr, b"\xde\xad\xbe\xef")
    assert heap.read(addr, 4) == b"\xde\xad\xbe\xef"


def test_kmalloc_zeroes_memory():
    heap = SharedHeap(4096, base=0)
    a = heap.kmalloc(32)
    heap.write(a, b"\xff" * 32)
    heap.kfree(a)
    b = heap.kmalloc(32)
    assert b == a  # size-class reuse
    assert heap.read(b, 32) == bytes(32)


def test_kfree_unallocated_rejected():
    heap = SharedHeap(4096, base=0)
    with pytest.raises(ReproError):
        heap.kfree(0x10)


def test_heap_exhaustion():
    heap = SharedHeap(256, base=0)
    heap.kmalloc(128)
    with pytest.raises(OutOfMemory):
        heap.kmalloc(256)


def test_heap_out_of_bounds_access_rejected():
    heap = SharedHeap(64, base=0x100)
    with pytest.raises(ReproError):
        heap.read(0x100 + 60, 8)
    with pytest.raises(ReproError):
        heap.read(0x90, 4)


def test_heap_integer_access():
    heap = SharedHeap(4096, base=0)
    addr = heap.kmalloc(16)
    heap.write_u(addr + 8, 4, 0xCAFEBABE)
    assert heap.read_u(addr + 8, 4) == 0xCAFEBABE


def test_live_object_accounting():
    heap = SharedHeap(4096, base=0)
    a = heap.kmalloc(8)
    b = heap.kmalloc(8)
    assert heap.live_objects() == 2
    heap.kfree(a)
    heap.kfree(b)
    assert heap.live_objects() == 0


def test_kmalloc_reuses_only_a_block_meeting_the_alignment():
    """A recycled size-class block is handed out only if it satisfies
    ``align``; otherwise a new, aligned block is carved."""
    heap = SharedHeap(4096, base=0)
    heap.kmalloc(8)                      # offsets [0, 16)
    odd = heap.kmalloc(64)               # offset 16: 8-aligned only
    assert odd % 64 != 0
    heap.kfree(odd)
    aligned = heap.kmalloc(64, align=64)
    assert aligned % 64 == 0 and aligned != odd
    assert heap.kmalloc(64) == odd       # still recyclable at align 8


# --- SharedHeap lazy backing ---------------------------------------------------

def test_in_range_read_past_the_backing_returns_zeros():
    heap = SharedHeap(1 << 20, base=0x1000)
    addr = heap.kmalloc(16)
    heap.write(addr, b"\xab" * 16)
    assert len(heap._mem) < 4096
    assert heap.read(0x1000 + 500_000, 32) == bytes(32)
    # straddles the end of the backing: backed bytes, then zeros
    end = 0x1000 + len(heap._mem)
    assert heap.read(end - 4, 8) == heap.read(end - 4, 4) + bytes(4)
    assert heap.read_u(heap.end - 8, 8) == 0


def test_write_past_the_backing_grows_it_and_reads_back():
    heap = SharedHeap(1 << 20, base=0)
    heap.write(300_000, b"xyz")
    assert heap.read(300_000, 3) == b"xyz"
    assert heap.read(299_990, 10) == bytes(10)
    assert len(heap._mem) == 300_003


def test_out_of_range_access_still_raises():
    heap = SharedHeap(1 << 20, base=0x1000)
    for bad in (lambda: heap.read(heap.end - 4, 8),
                lambda: heap.read(0x1000 - 1, 2),
                lambda: heap.write(heap.end, b"\x00"),
                lambda: heap.write(heap.end - 2, b"abc")):
        with pytest.raises(ReproError):
            bad()
    assert len(heap._mem) == 0


def test_heap_exhausted_at_the_same_break():
    """Exhaustion depends on the break alone, not on how much is backed."""
    heap = SharedHeap(4096, base=0)
    addrs = []
    with pytest.raises(OutOfMemory, match=r"\(4080/4096 used\)"):
        while True:
            addrs.append(heap.kmalloc(24, align=8))   # 32-byte classes
            if len(addrs) == 127:
                heap.kmalloc(1, align=8)              # 16 more: brk 4080
    assert len(addrs) == 127 and heap._brk == 4080
    assert len(heap._mem) == 127 * 32 + 1   # up to the 1-byte block


def test_recycled_block_is_zeroed_again_past_the_old_backing():
    heap = SharedHeap(4096, base=0)
    a = heap.kmalloc(20)                 # 32-byte class, 20 bytes backed
    heap.write(a, b"\xff" * 20)
    heap.kfree(a)
    b = heap.kmalloc(32)
    assert b == a
    assert heap.read(b, 32) == bytes(32)
    heap.write(b, b"\xee" * 32)
    heap.kfree(b)
    assert heap.kmalloc(17) == a
    assert heap.read(a, 32) == bytes(17) + b"\xee" * 15


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_fig4_machine_backs_only_what_it_touched(config):
    machine = build_machine(2, config)
    for node in machine.nodes:
        heap = node.node.kheap
        assert heap.size == 8 * 1024 * 1024
        assert 0 < heap._brk < 8 * 1024
        assert len(heap._mem) <= heap._brk + 4 * 1024

