"""Per-process page tables with mixed 4KB / 2MB mappings.

The structure that matters for the paper is :meth:`PageTable.phys_spans`:
given a virtual range it yields the *physically contiguous* spans backing
it, merged across page boundaries.  The Linux HFI1 driver never exploits
contiguity (it chops everything to PAGE_SIZE); the HFI PicoDriver walks
these spans directly and builds SDMA requests up to 10KB (section 3.4).

The table keeps its entries as four columns (virtual address, physical
address, page size, pinned) and handles them a request at a time:
:meth:`PageTable.map_extents` builds a whole mmap's columns, checks the
range against its neighbours once and splices them in with one slice
assignment per column, :meth:`PageTable.pages` of a run of 4KB entries
is a slice of the physical-address column, and the walks bisect once
and then step through the sorted entries.  A :class:`Mapping` is built
only when :meth:`PageTable.lookup` is asked for one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from ..errors import PageFault, ReproError
from ..units import LARGE_PAGE_SIZE, PAGE_SIZE
from .memory import Extent, Extents
from .record import Record


class Mapping(Record):
    """One page-table entry at natural granularity."""

    __slots__ = ("vaddr", "paddr", "page_size", "pinned")

    def __init__(self, vaddr: int, paddr: int, page_size: int,
                 pinned: bool = False):
        self.vaddr = vaddr          # virtual start (aligned to page_size)
        self.paddr = paddr          # physical start (aligned to page_size)
        self.page_size = page_size  # PAGE_SIZE or LARGE_PAGE_SIZE
        self.pinned = pinned

    @property
    def vend(self) -> int:
        return self.vaddr + self.page_size


class PageTable:
    """Sorted entry columns with bisect lookup.

    Entries are stored per page at natural granularity (one entry per 4KB
    or per 2MB page), which keeps ``translate`` O(log n) and keeps large
    pages first-class rather than expanded.  Entry ``i`` is
    ``_sizes[i]`` bytes at virtual ``_vaddrs[i]``, backed from physical
    ``_paddrs[i]``, pinned when ``_pinned[i]``.
    """

    def __init__(self, owner: str = ""):
        self.owner = owner
        self._vaddrs: List[int] = []
        self._paddrs: List[int] = []
        self._sizes: List[int] = []
        self._pinned: List[bool] = []

    def __len__(self) -> int:
        return len(self._vaddrs)

    # -- construction ------------------------------------------------------

    def map_page(self, vaddr: int, paddr: int, page_size: int = PAGE_SIZE,
                 pinned: bool = False) -> None:
        """Install one page mapping (vaddr/paddr must be aligned)."""
        if page_size not in (PAGE_SIZE, LARGE_PAGE_SIZE):
            raise ReproError(f"unsupported page size {page_size}")
        if vaddr % page_size or paddr % page_size:
            raise ReproError(
                f"unaligned mapping va={vaddr:#x} pa={paddr:#x} size={page_size}")
        vaddrs = self._vaddrs
        idx = bisect_left(vaddrs, vaddr)
        if idx < len(vaddrs) and vaddrs[idx] < vaddr + page_size:
            raise ReproError(f"mapping overlap at {vaddr:#x}")
        if idx > 0 and vaddrs[idx - 1] + self._sizes[idx - 1] > vaddr:
            raise ReproError(f"mapping overlap at {vaddr:#x}")
        vaddrs.insert(idx, vaddr)
        self._paddrs.insert(idx, paddr)
        self._sizes.insert(idx, page_size)
        self._pinned.insert(idx, pinned)

    def map_extents(self, vaddr: int, extents: Iterable[Extent],
                    frame_size: int = PAGE_SIZE, pinned: bool = False,
                    use_large_pages: bool = False) -> int:
        """Map physical ``extents`` consecutively starting at ``vaddr``.

        ``extents`` are :class:`Extents` columns or any iterable of
        :class:`Extent`.  When ``use_large_pages`` is set, any
        2MB-aligned 2MB-sized piece of an extent is installed as a single
        large-page entry (McKernel's policy); the ragged edges fall back
        to 4KB entries.  Returns the end virtual address.

        The entries are the ones a :meth:`map_page` call per page would
        install, and a rejected range raises the error the first failing
        page would have raised; but the whole range is checked before
        any entry is installed, so a rejected call installs nothing.
        Without large pages the 4KB page addresses of all the extents
        are one numpy expression.
        """
        if frame_size % PAGE_SIZE:
            raise ReproError(f"frame size {frame_size} is not a multiple "
                             f"of {PAGE_SIZE}")
        exts = Extents.of(extents)
        if use_large_pages:
            paddrs, sizes = _large_page_columns(vaddr, exts, frame_size)
            vaddrs = list(accumulate(sizes, initial=vaddr))
            va = vaddrs.pop()
        else:
            paddrs = _base_pages(exts, frame_size)
            va = vaddr + len(paddrs) * PAGE_SIZE
            vaddrs = list(range(vaddr, va, PAGE_SIZE))
            sizes = [PAGE_SIZE] * len(paddrs)
        if not vaddrs:
            return va
        if vaddr % PAGE_SIZE:
            raise ReproError(f"unaligned mapping va={vaddr:#x} "
                             f"pa={paddrs[0]:#x} size={PAGE_SIZE}")
        # the first page to overlap an existing entry is the one holding
        # the entry's start (or the first page, for a left neighbour
        # reaching into the range)
        mine = self._vaddrs
        idx = bisect_left(mine, vaddr)
        if idx > 0 and mine[idx - 1] + self._sizes[idx - 1] > vaddr:
            raise ReproError(f"mapping overlap at {vaddr:#x}")
        if idx < len(mine) and mine[idx] < va:
            first = vaddrs[bisect_right(vaddrs, mine[idx]) - 1]
            raise ReproError(f"mapping overlap at {first:#x}")
        mine[idx:idx] = vaddrs
        self._paddrs[idx:idx] = paddrs
        self._sizes[idx:idx] = sizes
        self._pinned[idx:idx] = [pinned] * len(vaddrs)
        return va

    def unmap_range(self, vaddr: int, length: int) -> Extents:
        """Remove all mappings intersecting ``[vaddr, vaddr+length)``;
        returns the physical extents released (frame numbers), one per
        entry.

        A page only partly inside the range raises; the pages before it
        are removed, as removing them one at a time would have done.
        Only the first and the last entry can be partly inside, and the
        removal itself is one slice deletion per column.
        """
        vaddrs, sizes = self._vaddrs, self._sizes
        end = vaddr + length
        idx = bisect_right(vaddrs, vaddr) - 1
        if idx < 0 or vaddrs[idx] + sizes[idx] <= vaddr:
            idx += 1
        stop = bisect_left(vaddrs, end, idx)
        if stop > idx:
            if vaddrs[idx] < vaddr:
                self._partial_unmap(idx, idx, vaddr, length)
            if vaddrs[stop - 1] + sizes[stop - 1] > end:
                self._partial_unmap(idx, stop - 1, vaddr, length)
        released = Extents(
            [paddr // PAGE_SIZE for paddr in self._paddrs[idx:stop]],
            [size // PAGE_SIZE for size in sizes[idx:stop]])
        self._delete(idx, stop)
        return released

    def _partial_unmap(self, idx: int, pos: int, vaddr: int,
                       length: int) -> None:
        """Raise for entry ``pos``, partly inside the range being
        unmapped, after removing entries ``idx`` to ``pos``."""
        page_at, size = self._vaddrs[pos], self._sizes[pos]
        self._delete(idx, pos)
        raise ReproError(
            f"partial unmap of a {size}-byte page at "
            f"{page_at:#x} (range [{vaddr:#x}, +{length:#x}))")

    def _delete(self, lo: int, hi: int) -> None:
        """Remove entries ``lo`` to ``hi`` from every column."""
        del self._vaddrs[lo:hi], self._paddrs[lo:hi], \
            self._sizes[lo:hi], self._pinned[lo:hi]

    # -- lookup ------------------------------------------------------------

    def _index(self, vaddr: int) -> int:
        """The index of the entry covering ``vaddr`` (PageFault if none)."""
        idx = bisect_right(self._vaddrs, vaddr) - 1
        if idx < 0 or self._vaddrs[idx] + self._sizes[idx] <= vaddr:
            raise PageFault(self.owner, vaddr, "no mapping")
        return idx

    def lookup(self, vaddr: int) -> Mapping:
        """The mapping covering ``vaddr`` (PageFault if none)."""
        idx = self._index(vaddr)
        return Mapping(self._vaddrs[idx], self._paddrs[idx],
                       self._sizes[idx], self._pinned[idx])

    def translate(self, vaddr: int) -> int:
        """Virtual to physical byte address."""
        idx = self._index(vaddr)
        return self._paddrs[idx] + (vaddr - self._vaddrs[idx])

    def _walk(self, vaddr: int, end: int) -> Iterator[Tuple[int, int]]:
        """``(index, entry end)`` for the entries covering
        ``[vaddr, end)``, in address order.

        One bisect finds the first entry; the rest follow in column
        order.  Raises :class:`PageFault` at the first uncovered address,
        the same vaddr a per-page ``lookup`` walk would have faulted at.
        """
        vaddrs, sizes = self._vaddrs, self._sizes
        idx = bisect_right(vaddrs, vaddr) - 1
        va = vaddr
        while va < end:
            if not 0 <= idx < len(vaddrs):
                raise PageFault(self.owner, va, "no mapping")
            start = vaddrs[idx]
            vend = start + sizes[idx]
            if not start <= va < vend:
                raise PageFault(self.owner, va, "no mapping")
            yield idx, vend
            va = vend
            idx += 1

    def is_pinned(self, vaddr: int, length: int) -> bool:
        """True if every page in the range is pinned."""
        pinned = self._pinned
        return all(pinned[i] for i, _ in self._walk(vaddr, vaddr + length))

    def phys_spans(self, vaddr: int, length: int) -> List[Tuple[int, int]]:
        """Physically contiguous ``(paddr, nbytes)`` spans backing the
        virtual range, merged across page boundaries.

        This is what the PicoDriver iterates instead of collecting page
        references: one span can cover many pages when the backing memory
        is contiguous (section 3.4).
        """
        if length < 0:
            raise ReproError(f"negative length {length}")
        spans: List[Tuple[int, int]] = []
        vaddrs, paddrs = self._vaddrs, self._paddrs
        va, end = vaddr, vaddr + length
        for i, vend in self._walk(va, end):
            pa = paddrs[i] + (va - vaddrs[i])
            chunk = min(vend, end) - va
            if spans and spans[-1][0] + spans[-1][1] == pa:
                spans[-1] = (spans[-1][0], spans[-1][1] + chunk)
            else:
                spans.append((pa, chunk))
            va += chunk
        return spans

    def pages(self, vaddr: int, length: int) -> List[int]:
        """Physical addresses of the 4KB pages backing the range — the
        ``get_user_pages()`` view the Linux driver collects (one entry per
        base page even inside a large page).

        When the range's first and last pages start entries of their
        own, the entries between are exactly its 4KB pages (entries are
        aligned and never overlap), and the answer is a slice of the
        physical-address column.  Otherwise each entry contributes its
        base pages arithmetically, found by one bisect and a plain loop;
        :class:`PageFault` comes at the first uncovered address, as in
        :meth:`_walk`.
        """
        # align down to a 4KB boundary, like gup does
        va = vaddr - vaddr % PAGE_SIZE
        end = vaddr + length
        vaddrs, paddrs, sizes = self._vaddrs, self._paddrs, self._sizes
        idx = bisect_right(vaddrs, va) - 1
        last = idx + (end - va - 1) // PAGE_SIZE
        if (end > va and idx >= 0 and last < len(vaddrs)
                and vaddrs[idx] == va
                and vaddrs[last] == va + (last - idx) * PAGE_SIZE):
            return paddrs[idx:last + 1]
        out: List[int] = []
        while va < end:
            if not 0 <= idx < len(vaddrs):
                raise PageFault(self.owner, va, "no mapping")
            start, size = vaddrs[idx], sizes[idx]
            vend = start + size
            if not start <= va < vend:
                raise PageFault(self.owner, va, "no mapping")
            if size == PAGE_SIZE:
                out.append(paddrs[idx])  # va is page-aligned: the whole page
            else:
                pa = paddrs[idx] + (va - start)
                out.extend(range(pa, pa + min(vend, end) - va, PAGE_SIZE))
            va = vend
            idx += 1
        return out


def _base_pages(exts: Extents, frame_size: int) -> List[int]:
    """The physical address of every 4KB page of ``exts``, in order."""
    per_frame = frame_size // PAGE_SIZE
    counts = np.asarray(exts.counts, dtype=np.int64) * per_frame
    first = np.asarray(exts.starts, dtype=np.int64) * frame_size
    # page j of the whole request is page j - before of its extent
    before = np.cumsum(counts) - counts
    page = np.arange(int(counts.sum()), dtype=np.int64)
    return (np.repeat(first - before * PAGE_SIZE, counts)
            + page * PAGE_SIZE).tolist()


def _large_page_columns(vaddr: int, exts: Extents,
                        frame_size: int) -> Tuple[List[int], List[int]]:
    """``(paddrs, sizes)`` of the entries McKernel's large-page policy
    maps ``exts`` with from ``vaddr``: 4KB pages up to a 2MB boundary
    that va and pa reach together, 2MB pages while 2MB remain, then the
    4KB tail."""
    paddrs: List[int] = []
    sizes: List[int] = []
    va = vaddr
    for start, count in zip(exts.starts, exts.counts):
        pa = start * frame_size
        end = pa + count * frame_size
        if (va - pa) % LARGE_PAGE_SIZE == 0:
            head = min(-(-pa // LARGE_PAGE_SIZE) * LARGE_PAGE_SIZE, end)
            body = head + (end - head) // LARGE_PAGE_SIZE * LARGE_PAGE_SIZE
            paddrs += range(pa, head, PAGE_SIZE)
            paddrs += range(head, body, LARGE_PAGE_SIZE)
            sizes += [PAGE_SIZE] * ((head - pa) // PAGE_SIZE)
            sizes += [LARGE_PAGE_SIZE] * ((body - head) // LARGE_PAGE_SIZE)
            pa = body
        paddrs += range(pa, end, PAGE_SIZE)  # the 4KB tail
        sizes += [PAGE_SIZE] * ((end - pa) // PAGE_SIZE)
        va += count * frame_size
    return paddrs, sizes
