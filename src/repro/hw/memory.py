"""Physical memory: frame allocation with contiguity policies, and a
byte-addressable shared kernel heap.

Two distinct facilities live here:

* :class:`FrameAllocator` hands out physical page frames.  It supports the
  two allocation personalities the paper contrasts: Linux anonymous memory
  (fragmented 4KB frames) and McKernel anonymous memory (physically
  contiguous runs / large pages, section 3.4).  The SDMA request size — the
  heart of Figure 4 — falls directly out of the extents it returns.

* :class:`SharedHeap` is the direct-mapped kernel heap (``kmalloc`` arena)
  both kernels see after the PicoDriver virtual-address-space unification.
  It is backed by a real ``bytearray`` so that Linux-driver structures
  written on one side are *actually read back* byte-for-byte on the other
  through DWARF-extracted offsets.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import add, sub
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import OutOfMemory, ReproError
from ..units import PAGE_SIZE
from .record import Record


class Extent(Record):
    """A run of physically contiguous frames: ``count`` frames from
    ``start`` (frame numbers, not byte addresses)."""

    __slots__ = ("start", "count")

    def __init__(self, start: int, count: int):
        self.start = start
        self.count = count

    @property
    def end(self) -> int:
        return self.start + self.count

    def byte_range(self, frame_size: int = PAGE_SIZE) -> Tuple[int, int]:
        """(start, end) byte addresses of the extent."""
        return self.start * frame_size, self.count * frame_size


class Extents:
    """One request's runs of physically contiguous frames as two
    columns: run ``i`` is ``counts[i]`` frames from ``starts[i]``.

    Iterating yields :class:`Extent` records, built on the fly; the
    allocator and the page table read the columns.  A list or
    tuple of the same records, in order, compares equal.
    """

    __slots__ = ("starts", "counts")

    def __init__(self, starts: List[int], counts: List[int]):
        self.starts = starts
        self.counts = counts

    @classmethod
    def of(cls, extents: Iterable[Extent]) -> "Extents":
        """The columns of ``extents`` (columns are returned as they are)."""
        if isinstance(extents, Extents):
            return extents
        exts = list(extents)
        return cls([e.start for e in exts], [e.count for e in exts])

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[Extent]:
        return map(Extent, self.starts, self.counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Extents):
            return (self.starts, self.counts) == (other.starts, other.counts)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Extents({list(self)!r})"


class FrameAllocator:
    """First-fit extent allocator over ``total_frames`` physical frames.

    Free space is a sorted list of disjoint ``[start, end)`` intervals,
    kept as two columns (``_starts``, ``_ends``).  All operations
    maintain the invariant that intervals are sorted, non-empty and
    non-adjacent (adjacent intervals are merged on free).
    """

    def __init__(self, total_frames: int, frame_size: int = PAGE_SIZE,
                 name: str = "mem", base_frame: int = 0):
        if total_frames <= 0:
            raise ReproError(f"total_frames must be positive: {total_frames}")
        self.total_frames = total_frames
        self.frame_size = frame_size
        self.name = name
        #: first frame number managed (IHK partitions hand an LWK a window
        #: of the node's frames, keeping frame numbers globally meaningful)
        self.base_frame = base_frame
        self._starts: List[int] = [base_frame]
        self._ends: List[int] = [base_frame + total_frames]
        self.allocated_frames = 0

    # -- queries -----------------------------------------------------------

    @property
    def free_frames(self) -> int:
        return self.total_frames - self.allocated_frames

    def free_intervals(self) -> List[Tuple[int, int]]:
        """Snapshot of the free list (for tests/inspection)."""
        return list(zip(self._starts, self._ends))

    def largest_free_run(self) -> int:
        """Length of the longest contiguous free run, in frames."""
        return max(map(sub, self._ends, self._starts), default=0)

    # -- allocation ----------------------------------------------------------

    def alloc_contiguous(self, n_frames: int,
                         align: int = 1) -> Extent:
        """Allocate one physically contiguous run of ``n_frames`` frames,
        start aligned to ``align`` frames (e.g. 512 for a 2MB page)."""
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        for idx, (start, end) in enumerate(zip(self._starts, self._ends)):
            aligned = -(-start // align) * align
            if aligned + n_frames <= end:
                self._carve(idx, aligned, aligned + n_frames)
                return Extent(aligned, n_frames)
        raise OutOfMemory(
            f"{self.name}: no contiguous run of {n_frames} frames "
            f"(align={align}, largest free run={self.largest_free_run()})")

    def alloc(self, n_frames: int) -> Extents:
        """Allocate ``n_frames`` frames in as few extents as possible
        (best-effort contiguity; splits across free intervals if needed)."""
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        if n_frames > self.free_frames:
            raise OutOfMemory(f"{self.name}: want {n_frames} frames, "
                              f"only {self.free_frames} free")
        got = Extents([], [])
        need = n_frames
        # Greedy: repeatedly take the largest free interval.
        while need > 0:
            lengths = list(map(sub, self._ends, self._starts))
            idx = lengths.index(max(lengths))
            start = self._starts[idx]
            take = min(need, lengths[idx])
            self._carve(idx, start, start + take)
            got.starts.append(start)
            got.counts.append(take)
            need -= take
        return got

    def alloc_scattered(self, n_frames: int,
                        rng: np.random.Generator,
                        contig_prob: float = 0.0) -> Extents:
        """Allocate ``n_frames`` as mostly *non*-contiguous frames — the
        post-fragmentation Linux anonymous-memory personality.

        Runs have geometric length with parameter ``contig_prob`` (expected
        run ``1/(1-contig_prob)``), separated by single-frame holes.  One
        sweep over the free list, from a random interval on.  Under memory
        pressure the remainder is taken from the holes, one frame each, in
        sweep order — which is also what a real buddy allocator degrades
        to.

        A run grows while one uniform draw per frame falls below
        ``contig_prob``: in an interval, the first frame starts a run
        without a draw, and each draw either adds the next frame to the
        run or ends the run, leaving that frame a hole and starting the
        next run after it.  No draw is made once the run holds every frame
        still needed or reaches the interval's end.  So every draw either
        grows a run or ends it, the sweep consumes at most ``n_frames``
        draws, and they are drawn as one block; the generator is then
        rewound and advanced by the draws actually consumed, leaving it
        where one scalar ``random()`` per draw would have.

        The sweep runs on the block with numpy.  Let ``G[i]`` be ``i`` plus
        the run ends among the draws before ``i`` (a run end takes two
        frames, the hole and the next run's first).  In an interval of
        ``L`` frames whose first draw is ``D``, draw ``D + j`` decides the
        frame ``G[D + j] - G[D] + 1`` from its start, so the interval
        takes the draws with ``G[D + j] - G[D] + 1 < L``, fewer when the
        frames still needed run out first.  One binary search of ``G`` per
        interval finds them; the run ends among them are its holes; and
        the extents and the holes are built from those positions as
        columns.  No two free pieces touch (a hole lies between taken
        frames or ends its interval, and the intervals lay apart), so the
        free list is the pieces in sweep order, rotated to start at the
        lowest.
        """
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        if n_frames > self.free_frames:
            raise OutOfMemory(f"{self.name}: want {n_frames} frames, "
                              f"only {self.free_frames} free")
        starts, ends = self._starts, self._ends
        # start the sweep at a random free interval so successive
        # allocations land in different regions
        rotation = int(rng.integers(0, len(starts))) if starts else 0
        state = rng.bit_generator.state
        run_end = rng.random(n_frames) >= contig_prob
        frame = np.arange(n_frames + 1)
        np.cumsum(run_end, out=frame[1:], dtype=frame.dtype)
        frame[1:] += np.arange(1, n_frames + 1)
        need = n_frames
        drawn = 0
        #: per interval swept: (start, G of its first draw, its first
        #: draw, draws taken, end of its last run, last frame a hole)
        swept = []
        #: free pieces other than the holes: untouched intervals and the
        #: part of an interval past the last frame taken
        rest_starts: List[int] = []
        rest_ends: List[int] = []
        for i in chain(range(rotation, len(starts)), range(rotation)):
            start, end = starts[i], ends[i]
            if need == 0:
                rest_starts.append(start)
                rest_ends.append(end)
                continue
            g0 = int(frame[drawn])
            last = g0 + end - start - 1
            k = int(frame[drawn:].searchsorted(last))
            if k < need:
                # the interval runs out first: a draw ending a run at its
                # last frame leaves that frame a hole and no run after it
                hole_last = int(frame[drawn + k]) > last
                stop = end
                need -= 1 + k - hole_last
            else:
                k = need - 1
                hole_last = False
                stop = start + 1 + int(frame[drawn + k]) - g0
                need = 0
                rest_starts.append(stop)
                rest_ends.append(end)
            swept.append((start, g0, drawn, k, stop, hole_last))
            drawn += k
        rng.bit_generator.state = state
        if drawn:
            rng.random(drawn)
        v_start, v_g0, v_first, v_taken, v_stop, v_hole_last = \
            np.array(swept, dtype=np.int64).T
        v_next = v_first + v_taken
        holes_per = (frame[v_next] - v_next) - (v_g0 - v_first)
        ended = np.flatnonzero(run_end[:drawn])
        holes = frame[ended] + np.repeat(v_start + 1 - v_g0, holes_per)
        # each interval's runs: from its start and after each hole, to
        # each hole and to its stop; the run after a hole at the
        # interval's last frame is empty and dropped
        lasts = np.cumsum(holes_per + 1) - 1
        firsts = lasts - holes_per
        run_starts = np.empty(lasts[-1] + 1, dtype=np.int64)
        run_ends = np.empty_like(run_starts)
        inner = np.ones(len(run_starts), dtype=bool)
        inner[lasts] = False
        run_ends[inner] = holes
        run_ends[lasts] = v_stop
        inner[lasts] = True
        inner[firsts] = False
        run_starts[inner] = holes + 1
        run_starts[firsts] = v_start
        keep = np.ones(len(run_starts), dtype=bool)
        keep[lasts[v_hole_last.astype(bool)]] = False
        ext_starts = run_starts[keep].tolist()
        ext_counts = (run_ends[keep] - run_starts[keep]).tolist()
        if need > 0:
            # memory pressure: every interval ran out, so the free frames
            # left are the holes; take them in sweep order
            if need > len(holes):
                raise OutOfMemory(f"{self.name}: accounting bug, "
                                  f"{need - len(holes)} frames short")
            ext_starts += holes[:need].tolist()
            ext_counts += [1] * need
            holes = holes[need:]
        # in sweep order the free pieces are the holes, then the rest
        free_starts = holes.tolist() + rest_starts
        free_ends = (holes + 1).tolist() + rest_ends
        low = free_starts.index(min(free_starts)) if free_starts else 0
        self._starts = free_starts[low:] + free_starts[:low]
        self._ends = free_ends[low:] + free_ends[:low]
        self.allocated_frames += n_frames
        return Extents(ext_starts, ext_counts)

    # -- freeing -------------------------------------------------------------

    def free(self, extents: Iterable[Extent]) -> None:
        """Return extents to the free pool (must have been allocated).

        ``extents`` are :class:`Extents` columns or any iterable of
        :class:`Extent`, turned into columns once.  The whole request is
        checked before anything changes.  A valid one is a single sorted
        merge into the free list.  An invalid one (an empty extent, one
        outside memory, or a double free of a free frame or of a frame
        named twice) raises the error freeing the extents one at a time
        would have raised first, and leaves the allocator as it was.
        """
        exts = Extents.of(extents)
        if not exts.starts:
            return
        ends = list(map(add, exts.starts, exts.counts))
        if (min(exts.counts) <= 0 or min(exts.starts) < self.base_frame
                or max(ends) > self.base_frame + self.total_frames):
            raise self._first_free_error(exts)
        merged_starts: List[int] = []
        merged_ends: List[int] = []
        # the free list is one sorted run, so this sort merges the
        # request into it
        for start, end in sorted(zip(self._starts + exts.starts,
                                     self._ends + ends)):
            if merged_ends and merged_ends[-1] >= start:
                if merged_ends[-1] > start:  # overlap: a double free
                    raise self._first_free_error(exts)
                merged_ends[-1] = end
            else:
                merged_starts.append(start)
                merged_ends.append(end)
        self._starts, self._ends = merged_starts, merged_ends
        self.allocated_frames -= sum(exts.counts)

    def _first_free_error(self, exts: Extents) -> ReproError:
        """The error freeing ``exts`` one at a time would raise first,
        found by replaying that on a copy of the free list."""
        starts, ends = list(self._starts), list(self._ends)
        for ext in exts:
            if ext.count <= 0:
                return ReproError(f"freeing empty extent {ext}")
            if ext.start < self.base_frame or \
                    ext.end > self.base_frame + self.total_frames:
                return ReproError(f"extent {ext} outside memory")
            idx = bisect_right(starts, ext.start)
            if idx > 0 and ends[idx - 1] > ext.start:
                return ReproError(f"double free: {ext} overlaps free "
                                  f"interval {(starts[idx - 1], ends[idx - 1])}")
            if idx < len(starts) and starts[idx] < ext.end:
                return ReproError(f"double free: {ext} overlaps free "
                                  f"interval {(starts[idx], ends[idx])}")
            starts.insert(idx, ext.start)
            ends.insert(idx, ext.end)
            if idx + 1 < len(starts) and ends[idx] == starts[idx + 1]:
                ends[idx] = ends[idx + 1]
                del starts[idx + 1], ends[idx + 1]
            if idx > 0 and ends[idx - 1] == starts[idx]:
                ends[idx - 1] = ends[idx]
                del starts[idx], ends[idx]
        raise AssertionError("free() rejected a request the per-extent "
                             "replay accepts")  # pragma: no cover

    # -- internals -------------------------------------------------------------

    def _carve(self, idx: int, start: int, end: int) -> None:
        """Remove ``[start, end)`` from free interval ``idx``."""
        istart, iend = self._starts[idx], self._ends[idx]
        assert istart <= start and end <= iend
        self.allocated_frames += end - start
        starts, ends = [], []
        if istart < start:
            starts.append(istart)
            ends.append(start)
        if end < iend:
            starts.append(end)
            ends.append(iend)
        self._starts[idx:idx + 1] = starts
        self._ends[idx:idx + 1] = ends


class SharedHeap:
    """Byte-addressable kernel heap backed by a real ``bytearray``.

    Addresses returned by :meth:`kmalloc` are *kernel virtual addresses*
    (``base + offset``), matching the direct-mapping region both kernels
    share after unification.  Reads and writes move real bytes, so
    cross-kernel structure access through DWARF-extracted offsets is
    exercised for real, not pretended.

    The ``bytearray`` backs only the bytes touched so far: it grows when
    an allocation or a write reaches past it, and an in-range read past
    it returns zeros.  Bounds are still those of the full ``size``.
    """

    def __init__(self, size: int, base: int = 0xFFFF_8800_0000_0000,
                 name: str = "kheap"):
        self.size = size
        self.base = base
        self.name = name
        #: backing store for offsets [0, len(_mem)); the rest reads as zero
        self._mem = bytearray()
        self._brk = 0
        self._live: Dict[int, int] = {}  # addr -> size
        self._free_by_size: Dict[int, List[int]] = {}
        # opt-in access monitors (KSan race detector, lockdep validator);
        # when installed, every read/write is reported to them together
        # with the annotation the accessor layer declared
        self._monitors: List[object] = []
        self._monitor_view = None

    # -- monitors --------------------------------------------------------

    @property
    def monitor(self):
        """The installed access monitor: None, the single monitor, or a
        fan forwarding to all of them (accessor layers call it as one)."""
        return self._monitor_view

    @monitor.setter
    def monitor(self, value) -> None:
        self._monitors = [] if value is None else [value]
        self._refresh_monitor_view()

    def add_monitor(self, monitor) -> None:
        """Install an additional monitor alongside any existing ones, so
        KSan and the lockdep validator can watch the same heap."""
        self._monitors.append(monitor)
        self._refresh_monitor_view()

    def _refresh_monitor_view(self) -> None:
        if not self._monitors:
            self._monitor_view = None
        elif len(self._monitors) == 1:
            self._monitor_view = self._monitors[0]
        else:
            self._monitor_view = _MonitorFan(self._monitors)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True if ``addr`` lies inside the heap's address range."""
        return self.base <= addr < self.end

    # -- allocation ------------------------------------------------------

    def kmalloc(self, size: int, align: int = 8) -> int:
        """Allocate ``size`` bytes, return the kernel virtual address."""
        if size <= 0:
            raise ReproError(f"kmalloc of non-positive size {size}")
        rounded = self._round(size)
        off = self._reuse(self._free_by_size.get(rounded), align)
        if off is None:
            off = -(-self._brk // align) * align
            if off + rounded > self.size:
                raise OutOfMemory(f"{self.name}: heap exhausted "
                                  f"({self._brk}/{self.size} used)")
            self._brk = off + rounded
        addr = self.base + off
        self._live[addr] = size
        end = off + size
        mem = self._mem
        if end > len(mem):
            # zero only what is backed; the extension is zero already
            del mem[off:]
            mem.extend(bytes(end - len(mem)))
        else:
            mem[off:end] = bytes(size)
        return addr

    def _reuse(self, bucket: Optional[List[int]],
               align: int) -> Optional[int]:
        """Offset of the most recently freed block in ``bucket`` that
        meets ``align`` (removed from the bucket), or None."""
        if not bucket:
            return None
        base = self.base
        for i in range(len(bucket) - 1, -1, -1):
            off = bucket[i] - base
            if off % align == 0:
                del bucket[i]
                return off
        return None

    def kfree(self, addr: int) -> None:
        """Free an allocation (size-class recycled)."""
        size = self._live.pop(addr, None)
        if size is None:
            raise ReproError(f"{self.name}: kfree of unallocated {addr:#x}")
        self._free_by_size.setdefault(self._round(size), []).append(addr)
        # shadow-state reset: a recycled address is a fresh object, not a
        # continuation of the old one's access history (KSan would
        # otherwise report races between unrelated allocations)
        monitor = self._monitor_view
        if monitor is not None:
            fn = getattr(monitor, "on_free", None)
            if fn is not None:
                fn(addr, size, self)

    def live_objects(self) -> int:
        """Number of live allocations (leak checks)."""
        return len(self._live)

    # -- raw access ------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Read raw bytes at a kernel virtual address."""
        self._check(addr, size)
        monitor = self._monitor_view
        if monitor is not None:
            monitor.on_access("read", addr, size, self)
        off = addr - self.base
        data = bytes(self._mem[off: off + size])
        if len(data) < size:  # past the backing: never written, so zero
            data += bytes(size - len(data))
        return data

    def write(self, addr: int, data: bytes) -> None:
        """Write raw bytes at a kernel virtual address."""
        size = len(data)
        self._check(addr, size)
        monitor = self._monitor_view
        if monitor is not None:
            monitor.on_access("write", addr, size, self)
        off = addr - self.base
        mem = self._mem
        if off + size > len(mem):
            # back the heap up to the end of this write
            mem.extend(bytes(off + size - len(mem)))
        mem[off: off + size] = data

    def read_u(self, addr: int, size: int) -> int:
        """Read a little-endian unsigned integer of ``size`` bytes.

        :meth:`read` and the conversion in one frame: the struct
        accessors call this once per field read.
        """
        base = self.base
        if not (base <= addr and addr + size <= base + self.size):
            self._check(addr, size)
        monitor = self._monitor_view
        if monitor is not None:
            monitor.on_access("read", addr, size, self)
        off = addr - base
        # bytes past the backing read as zero: the missing high bytes
        # of a little-endian integer
        return int.from_bytes(self._mem[off: off + size], "little")

    def write_u(self, addr: int, size: int, value: int) -> None:
        """Write a little-endian unsigned integer of ``size`` bytes.

        The conversion and :meth:`write` in one frame; as before, a
        value that does not fit raises ``OverflowError`` before the
        bounds check and the monitor call.
        """
        data = int(value).to_bytes(size, "little", signed=False)
        base = self.base
        if not (base <= addr and addr + size <= base + self.size):
            self._check(addr, size)
        monitor = self._monitor_view
        if monitor is not None:
            monitor.on_access("write", addr, size, self)
        off = addr - base
        mem = self._mem
        end = off + size
        if end > len(mem):
            mem.extend(bytes(end - len(mem)))
        mem[off: end] = data

    def _check(self, addr: int, size: int) -> None:
        if not (self.base <= addr and addr + size <= self.end):
            raise ReproError(
                f"{self.name}: access [{addr:#x}, +{size}) outside heap "
                f"[{self.base:#x}, {self.end:#x})")

    @staticmethod
    def _round(size: int) -> int:
        """Size-class rounding (power of two, min 16) like a slab allocator."""
        size = max(size, 16)
        return 1 << (size - 1).bit_length()


class _MonitorFan:
    """Forwards the monitor protocol to every installed heap monitor.

    Every monitor implements the access and lock hooks, but only KSan
    implements ``on_free``; the fan quietly skips hooks a monitor does
    not define.
    """

    __slots__ = ("_monitors",)

    def __init__(self, monitors: List[object]):
        self._monitors = list(monitors)

    def _fan(self, hook: str, *args, **kwargs) -> None:
        for monitor in self._monitors:
            fn = getattr(monitor, hook, None)
            if fn is not None:
                fn(*args, **kwargs)

    def annotate(self, *args, **kwargs) -> None:
        self._fan("annotate", *args, **kwargs)

    def on_access(self, *args, **kwargs) -> None:
        self._fan("on_access", *args, **kwargs)

    def on_free(self, *args, **kwargs) -> None:
        self._fan("on_free", *args, **kwargs)

    def on_lock_acquired(self, *args, **kwargs) -> None:
        self._fan("on_lock_acquired", *args, **kwargs)

    def on_lock_released(self, *args, **kwargs) -> None:
        self._fan("on_lock_released", *args, **kwargs)
