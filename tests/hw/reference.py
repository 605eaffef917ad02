"""Per-item references for the hardware model's per-request code.

The simulator keeps the rendezvous path's per-page state per request:
``FrameAllocator.alloc_scattered`` draws its uniforms as one block,
``FrameAllocator.free`` merges a whole request into the free list at
once, ``PageTable.map_extents`` builds and splices a whole mmap's
entries at once, ``PageTable.unmap_range`` deletes them as one slice,
and the RcvArray stores ``(ctxt_id, span)`` per TID.  The classes and
functions here are those routines as they were, one frame, extent, page
or entry at a time; the tests run both and compare everything
observable.
"""

import bisect

from repro.errors import DriverError, OutOfMemory, ReproError
from repro.hw import Extent, FrameAllocator, TidEntry
from repro.sim import Tracer
from repro.units import LARGE_PAGE_SIZE, PAGE_SIZE


class PerExtentFrameAllocator(FrameAllocator):
    """``free`` as one checked insert-and-merge per extent: a rejected
    request leaves the extents before the bad one freed."""

    def free(self, extents):
        for ext in extents:
            self._free_one(ext)

    def _free_one(self, ext):
        if ext.count <= 0:
            raise ReproError(f"freeing empty extent {ext}")
        if ext.start < self.base_frame or \
                ext.end > self.base_frame + self.total_frames:
            raise ReproError(f"extent {ext} outside memory")
        starts = [s for s, _ in self._free]
        idx = bisect.bisect_right(starts, ext.start)
        if idx > 0 and self._free[idx - 1][1] > ext.start:
            raise ReproError(f"double free: {ext} overlaps free interval "
                             f"{tuple(self._free[idx - 1])}")
        if idx < len(self._free) and self._free[idx][0] < ext.end:
            raise ReproError(f"double free: {ext} overlaps free interval "
                             f"{tuple(self._free[idx])}")
        self._free.insert(idx, [ext.start, ext.end])
        self.allocated_frames -= ext.count
        if idx + 1 < len(self._free) and \
                self._free[idx][1] == self._free[idx + 1][0]:
            self._free[idx][1] = self._free[idx + 1][1]
            del self._free[idx + 1]
        if idx > 0 and self._free[idx - 1][1] == self._free[idx][0]:
            self._free[idx - 1][1] = self._free[idx][1]
            del self._free[idx]


def per_entry_unmap_range(pt, vaddr, length):
    """``unmap_range`` deleting one entry at a time."""
    released = []
    idx = bisect.bisect_right(pt._vaddrs, vaddr) - 1
    if idx < 0 or pt._maps[idx].vend <= vaddr:
        idx += 1
    while idx < len(pt._maps) and pt._maps[idx].vaddr < vaddr + length:
        m = pt._maps[idx]
        if m.vaddr < vaddr or m.vend > vaddr + length:
            raise ReproError(
                f"partial unmap of a {m.page_size}-byte page at "
                f"{m.vaddr:#x} (range [{vaddr:#x}, +{length:#x}))")
        released.append(Extent(m.paddr // PAGE_SIZE,
                               m.page_size // PAGE_SIZE))
        del pt._vaddrs[idx]
        del pt._maps[idx]
    return released


class ScalarFrameAllocator(FrameAllocator):
    """``alloc_scattered`` with one scalar ``random()`` per draw."""

    def alloc_scattered(self, n_frames, rng, contig_prob=0.0):
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        if n_frames > self.free_frames:
            raise OutOfMemory(f"{self.name}: want {n_frames} frames, "
                              f"only {self.free_frames} free")
        extents, new_free = [], []
        need = n_frames
        rotation = int(rng.integers(0, len(self._free))) if self._free else 0
        order = self._free[rotation:] + self._free[:rotation]
        for start, end in order:
            pos = start
            while pos < end and need > 0:
                run = 1
                while (run < need and pos + run < end
                       and rng.random() < contig_prob):
                    run += 1
                take = min(run, need, end - pos)
                extents.append(Extent(pos, take))
                need -= take
                pos += take
                if pos < end and need > 0:
                    new_free.append([pos, pos + 1])
                    pos += 1
            if pos < end:
                new_free.append([pos, end])
        for interval in new_free:
            if need == 0:
                break
            take = min(need, interval[1] - interval[0])
            extents.append(Extent(interval[0], take))
            interval[0] += take
            need -= take
        merged = []
        for iv in sorted(iv for iv in new_free if iv[0] < iv[1]):
            if merged and merged[-1][1] == iv[0]:
                merged[-1][1] = iv[1]
            else:
                merged.append(iv)
        self._free = merged
        self.allocated_frames += n_frames
        return extents


def per_page_map_extents(pt, vaddr, extents, frame_size=PAGE_SIZE,
                         pinned=False, use_large_pages=False):
    """``map_extents`` as one ``map_page`` call per page."""
    va = vaddr
    for ext in extents:
        pa, nbytes = ext.start * frame_size, ext.count * frame_size
        while nbytes:
            if (use_large_pages and va % LARGE_PAGE_SIZE == 0
                    and pa % LARGE_PAGE_SIZE == 0
                    and nbytes >= LARGE_PAGE_SIZE):
                step = LARGE_PAGE_SIZE
            else:
                step = PAGE_SIZE
            pt.map_page(va, pa, step, pinned)
            va += step
            pa += step
            nbytes -= step
    return va


class PerEntryRcvArray:
    """The RcvArray as one :class:`TidEntry` per programmed entry, with
    the per-TID validation loops of the device and the drivers.  A
    context owns the entries it programmed: a free or an expected
    packet naming another context's entry treats it as unknown."""

    def __init__(self, params):
        self.params = params
        self.tracer = Tracer()
        self.entries = {}
        self.next_tid = 0

    def program(self, ctxt_id, spans):
        """``HFIDevice.program_tids``; returns the TIDs."""
        if len(self.entries) + len(spans) > self.params.rcv_array_entries:
            raise DriverError(
                f"RcvArray exhausted: {len(self.entries)} in use, "
                f"{len(spans)} requested, {self.params.rcv_array_entries} total")
        for _pa, nbytes in spans:
            if nbytes <= 0:
                raise DriverError(
                    f"bad TID span size {min(n for _p, n in spans)}")
        for _pa, nbytes in spans:
            if nbytes > self.params.tid_max_span:
                raise DriverError(
                    f"TID span {max(n for _p, n in spans)}B exceeds entry "
                    f"max {self.params.tid_max_span}B")
        entries = []
        for paddr, nbytes in spans:
            entries.append(TidEntry(self.next_tid, ctxt_id, paddr, nbytes))
            self.next_tid += 1
        for entry in entries:
            self.entries[entry.tid] = entry
        self.tracer.count("hfi.tids_programmed", len(entries))
        return [e.tid for e in entries]

    def _owns(self, ctxt_id, tid):
        entry = self.entries.get(tid)
        return entry is not None and entry.ctxt_id == ctxt_id

    def unprogram(self, ctxt_id, tids):
        """``HFIDevice.unprogram_tids``."""
        if len(set(tids)) != len(tids):
            raise DriverError(f"unprogram lists a TID twice: {list(tids)}")
        unknown = [t for t in tids if not self._owns(ctxt_id, t)]
        if unknown:
            raise DriverError(f"unprogram of unknown TID {min(unknown)}")
        for tid in tids:
            del self.entries[tid]
        self.tracer.count("hfi.tids_unprogrammed", len(tids))

    def free_context(self, ctxt_id):
        """The TID half of ``HFIDevice.free_context``."""
        for tid in [t for t, e in self.entries.items()
                    if e.ctxt_id == ctxt_id]:
            del self.entries[tid]

    def receive(self, ctxt_id, tids, faults):
        """The TID check of ``HFIDevice.receive`` for an expected packet
        to context ``ctxt_id``; True when the packet is delivered."""
        for tid in tids:
            if faults and not self._owns(ctxt_id, tid):
                self.tracer.count("hfi.rx_stale_tid")
                return False
            if not self._owns(ctxt_id, tid):
                raise DriverError(f"unknown TID {tid}")
        self.tracer.count("hfi.rx_expected")
        return True
