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

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

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


class FrameAllocator:
    """First-fit extent allocator over ``total_frames`` physical frames.

    Free space is a sorted list of disjoint ``[start, end)`` intervals.
    All operations maintain the invariant that intervals are sorted,
    non-empty and non-adjacent (adjacent intervals are merged on free).
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
        self._free: List[List[int]] = [[base_frame, base_frame + total_frames]]
        self.allocated_frames = 0

    # -- queries -----------------------------------------------------------

    @property
    def free_frames(self) -> int:
        return self.total_frames - self.allocated_frames

    def free_intervals(self) -> List[Tuple[int, int]]:
        """Snapshot of the free list (for tests/inspection)."""
        return [(s, e) for s, e in self._free]

    def largest_free_run(self) -> int:
        """Length of the longest contiguous free run, in frames."""
        return max((e - s for s, e in self._free), default=0)

    # -- allocation ----------------------------------------------------------

    def alloc_contiguous(self, n_frames: int,
                         align: int = 1) -> Extent:
        """Allocate one physically contiguous run of ``n_frames`` frames,
        start aligned to ``align`` frames (e.g. 512 for a 2MB page)."""
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        for idx, (start, end) in enumerate(self._free):
            aligned = -(-start // align) * align
            if aligned + n_frames <= end:
                self._carve(idx, aligned, aligned + n_frames)
                return Extent(aligned, n_frames)
        raise OutOfMemory(
            f"{self.name}: no contiguous run of {n_frames} frames "
            f"(align={align}, largest free run={self.largest_free_run()})")

    def alloc(self, n_frames: int) -> List[Extent]:
        """Allocate ``n_frames`` frames in as few extents as possible
        (best-effort contiguity; splits across free intervals if needed)."""
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        if n_frames > self.free_frames:
            raise OutOfMemory(f"{self.name}: want {n_frames} frames, "
                              f"only {self.free_frames} free")
        got: List[Extent] = []
        need = n_frames
        # Greedy: repeatedly take the largest free interval.
        while need > 0:
            idx = max(range(len(self._free)),
                      key=lambda i: self._free[i][1] - self._free[i][0])
            start, end = self._free[idx]
            take = min(need, end - start)
            self._carve(idx, start, start + take)
            got.append(Extent(start, take))
            need -= take
        return got

    def alloc_scattered(self, n_frames: int,
                        rng: np.random.Generator,
                        contig_prob: float = 0.0) -> List[Extent]:
        """Allocate ``n_frames`` as mostly *non*-contiguous frames — the
        post-fragmentation Linux anonymous-memory personality.

        Runs have geometric length with parameter ``contig_prob`` (expected
        run ``1/(1-contig_prob)``), separated by single-frame holes.  One
        sweep over the free list, O(n) in frames allocated.  Under memory
        pressure the remainder is taken contiguously from the holes —
        which is also what a real buddy allocator degrades to.

        A run grows while one uniform draw per frame falls below
        ``contig_prob``.  Each draw either adds a frame to a run or ends
        it, so the sweep consumes at most ``n_frames`` draws: they are
        drawn as one block, and the generator is then rewound and
        advanced by the draws actually consumed, leaving it where one
        scalar ``random()`` per draw would have.
        """
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        if n_frames > self.free_frames:
            raise OutOfMemory(f"{self.name}: want {n_frames} frames, "
                              f"only {self.free_frames} free")
        extents: List[Extent] = []
        new_free: List[List[int]] = []
        need = n_frames
        # start the sweep at a random free interval so successive
        # allocations land in different regions
        rotation = int(rng.integers(0, len(self._free))) if self._free else 0
        order = self._free[rotation:] + self._free[:rotation]
        state = rng.bit_generator.state
        uniforms = rng.random(n_frames).tolist()
        drawn = 0
        for start, end in order:
            pos = start
            while pos < end and need > 0:
                run = 1
                while run < need and pos + run < end:
                    drawn += 1
                    if uniforms[drawn - 1] >= contig_prob:
                        break
                    run += 1
                extents.append(Extent(pos, run))
                need -= run
                pos += run
                if pos < end and need > 0:
                    new_free.append([pos, pos + 1])  # leave a hole
                    pos += 1
            if pos < end:
                new_free.append([pos, end])
        rng.bit_generator.state = state
        if drawn:
            rng.random(drawn)
        if need > 0:
            # memory pressure: fill from the holes we just left
            for interval in new_free:
                if need == 0:
                    break
                take = min(need, interval[1] - interval[0])
                extents.append(Extent(interval[0], take))
                interval[0] += take
                need -= take
        if need > 0:
            raise OutOfMemory(f"{self.name}: accounting bug, "
                              f"{need} frames short")
        # rebuild the free list: sorted, merged, non-empty
        new_free = sorted(iv for iv in new_free if iv[0] < iv[1])
        merged: List[List[int]] = []
        for iv in new_free:
            if merged and merged[-1][1] == iv[0]:
                merged[-1][1] = iv[1]
            else:
                merged.append(iv)
        self._free = merged
        self.allocated_frames += n_frames
        return extents

    # -- freeing -------------------------------------------------------------

    def free(self, extents: Iterable[Extent]) -> None:
        """Return extents to the free pool (must have been allocated).

        The whole request is checked before anything changes.  A valid
        one is a single sorted merge into the free list.  An invalid one
        (an empty extent, one outside memory, or a double free of a
        free frame or of a frame named twice) raises the error freeing
        the extents one at a time would have raised first, and leaves
        the allocator as it was.
        """
        exts = list(extents)
        lo, hi = self.base_frame, self.base_frame + self.total_frames
        spans: List[List[int]] = []
        for ext in exts:
            start, end = ext.start, ext.start + ext.count
            if not lo <= start < end <= hi:
                raise self._first_free_error(exts)
            spans.append([start, end])
        merged: List[List[int]] = []
        # the free list is one sorted run, so this sort merges the
        # request into it
        for start, end in sorted(self._free + spans):
            if merged and merged[-1][1] >= start:
                if merged[-1][1] > start:  # overlap: a double free
                    raise self._first_free_error(exts)
                merged[-1][1] = end
            else:
                merged.append([start, end])
        self._free = merged
        self.allocated_frames -= sum(end - start for start, end in spans)

    def _first_free_error(self, exts: List[Extent]) -> ReproError:
        """The error freeing ``exts`` one at a time would raise first,
        found by replaying that on a copy of the free list."""
        free = [list(iv) for iv in self._free]
        starts = [s for s, _ in free]
        for ext in exts:
            if ext.count <= 0:
                return ReproError(f"freeing empty extent {ext}")
            if ext.start < self.base_frame or \
                    ext.end > self.base_frame + self.total_frames:
                return ReproError(f"extent {ext} outside memory")
            idx = bisect.bisect_right(starts, ext.start)
            if idx > 0 and free[idx - 1][1] > ext.start:
                return ReproError(f"double free: {ext} overlaps free "
                                  f"interval {tuple(free[idx - 1])}")
            if idx < len(free) and free[idx][0] < ext.end:
                return ReproError(f"double free: {ext} overlaps free "
                                  f"interval {tuple(free[idx])}")
            free.insert(idx, [ext.start, ext.end])
            starts.insert(idx, ext.start)
            if idx + 1 < len(free) and free[idx][1] == free[idx + 1][0]:
                free[idx][1] = free[idx + 1][1]
                del free[idx + 1], starts[idx + 1]
            if idx > 0 and free[idx - 1][1] == free[idx][0]:
                free[idx - 1][1] = free[idx][1]
                del free[idx], starts[idx]
        raise AssertionError("free() rejected a request the per-extent "
                             "replay accepts")  # pragma: no cover

    # -- internals -------------------------------------------------------------

    def _carve(self, idx: int, start: int, end: int) -> None:
        """Remove ``[start, end)`` from free interval ``idx``."""
        istart, iend = self._free[idx]
        assert istart <= start and end <= iend
        self.allocated_frames += end - start
        pieces = []
        if istart < start:
            pieces.append([istart, start])
        if end < iend:
            pieces.append([end, iend])
        self._free[idx:idx + 1] = pieces



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

    Monitors implement only the hooks they care about (KSan ignores the
    ``on_lockdep_*`` pair, lockdep ignores ``annotate``/``on_access``);
    the fan quietly skips hooks a monitor does not define.
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

    def on_lockdep_acquire(self, *args, **kwargs) -> None:
        self._fan("on_lockdep_acquire", *args, **kwargs)

    def on_lockdep_release(self, *args, **kwargs) -> None:
        self._fan("on_lockdep_release", *args, **kwargs)
