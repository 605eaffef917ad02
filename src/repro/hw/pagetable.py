"""Per-process page tables with mixed 4KB / 2MB mappings.

The structure that matters for the paper is :meth:`PageTable.phys_spans`:
given a virtual range it yields the *physically contiguous* spans backing
it, merged across page boundaries.  The Linux HFI1 driver never exploits
contiguity (it chops everything to PAGE_SIZE); the HFI PicoDriver walks
these spans directly and builds SDMA requests up to 10KB (section 3.4).

The table keeps one :class:`Mapping` per page, but it handles them a
request at a time: :meth:`PageTable.map_extents` builds a whole mmap's
entries, checks the range against its neighbours once and splices the
entries in with one slice assignment, and the walks bisect once and then
step through the sorted entries.
"""

from __future__ import annotations

import bisect
from itertools import accumulate, repeat
from typing import Iterable, Iterator, List, Tuple

from ..errors import PageFault, ReproError
from ..units import LARGE_PAGE_SIZE, PAGE_SIZE
from .memory import Extent
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
    """Sorted mapping list with bisect lookup.

    Entries are stored per page at natural granularity (one entry per 4KB
    or per 2MB page), which keeps ``translate`` O(log n) and keeps large
    pages first-class rather than expanded.
    """

    def __init__(self, owner: str = ""):
        self.owner = owner
        self._vaddrs: List[int] = []
        self._maps: List[Mapping] = []

    def __len__(self) -> int:
        return len(self._maps)

    # -- construction ------------------------------------------------------

    def map_page(self, vaddr: int, paddr: int, page_size: int = PAGE_SIZE,
                 pinned: bool = False) -> None:
        """Install one page mapping (vaddr/paddr must be aligned)."""
        if page_size not in (PAGE_SIZE, LARGE_PAGE_SIZE):
            raise ReproError(f"unsupported page size {page_size}")
        if vaddr % page_size or paddr % page_size:
            raise ReproError(
                f"unaligned mapping va={vaddr:#x} pa={paddr:#x} size={page_size}")
        idx = bisect.bisect_left(self._vaddrs, vaddr)
        if idx < len(self._maps) and self._maps[idx].vaddr < vaddr + page_size:
            raise ReproError(f"mapping overlap at {vaddr:#x}")
        if idx > 0 and self._maps[idx - 1].vend > vaddr:
            raise ReproError(f"mapping overlap at {vaddr:#x}")
        self._vaddrs.insert(idx, vaddr)
        self._maps.insert(idx, Mapping(vaddr, paddr, page_size, pinned))

    def map_extents(self, vaddr: int, extents: Iterable[Extent],
                    frame_size: int = PAGE_SIZE, pinned: bool = False,
                    use_large_pages: bool = False) -> int:
        """Map physical ``extents`` consecutively starting at ``vaddr``.

        When ``use_large_pages`` is set, any 2MB-aligned 2MB-sized piece of
        an extent is installed as a single large-page entry (McKernel's
        policy); the ragged edges fall back to 4KB entries.
        Returns the end virtual address.

        The entries are the ones a :meth:`map_page` call per page would
        install, and a rejected range raises the error the first failing
        page would have raised; but the whole range is checked before
        any entry is installed, so a rejected call installs nothing.
        """
        if frame_size % PAGE_SIZE:
            raise ReproError(f"frame size {frame_size} is not a multiple "
                             f"of {PAGE_SIZE}")
        paddrs: List[int] = []
        #: positions in ``paddrs`` of the 2MB pages
        large: List[int] = []
        va = vaddr
        for ext in extents:
            pa = ext.start * frame_size
            nbytes = ext.count * frame_size
            end = pa + nbytes
            if use_large_pages and (va - pa) % LARGE_PAGE_SIZE == 0:
                # va and pa reach a 2MB boundary together: 4KB pages up
                # to it, then 2MB pages while 2MB remain
                head = min(-(-pa // LARGE_PAGE_SIZE) * LARGE_PAGE_SIZE, end)
                body = head + (end - head) // LARGE_PAGE_SIZE * LARGE_PAGE_SIZE
                paddrs += range(pa, head, PAGE_SIZE)
                large += range(len(paddrs),
                               len(paddrs) + (body - head) // LARGE_PAGE_SIZE)
                paddrs += range(head, body, LARGE_PAGE_SIZE)
                pa = body
            paddrs += range(pa, end, PAGE_SIZE)  # the 4KB tail
            va += nbytes
        sizes = [PAGE_SIZE] * len(paddrs)
        for i in large:
            sizes[i] = LARGE_PAGE_SIZE
        vaddrs = list(accumulate(sizes, initial=vaddr))
        del vaddrs[-1]
        if not vaddrs:
            return va
        if vaddr % PAGE_SIZE:
            raise ReproError(f"unaligned mapping va={vaddr:#x} "
                             f"pa={paddrs[0]:#x} size={PAGE_SIZE}")
        # the first page to overlap an existing entry is the one holding
        # the entry's start (or the first page, for a left neighbour
        # reaching into the range)
        idx = bisect.bisect_left(self._vaddrs, vaddr)
        if idx > 0 and self._maps[idx - 1].vend > vaddr:
            raise ReproError(f"mapping overlap at {vaddr:#x}")
        if idx < len(self._maps) and self._vaddrs[idx] < va:
            first = vaddrs[bisect.bisect_right(vaddrs, self._vaddrs[idx]) - 1]
            raise ReproError(f"mapping overlap at {first:#x}")
        self._vaddrs[idx:idx] = vaddrs
        self._maps[idx:idx] = map(Mapping, vaddrs, paddrs, sizes,
                                  repeat(pinned))
        return va

    def unmap_range(self, vaddr: int, length: int) -> List[Extent]:
        """Remove all mappings intersecting ``[vaddr, vaddr+length)``;
        returns the physical extents released (frame numbers).

        A page only partly inside the range raises; the pages before it
        are removed, as removing them one at a time would have done.
        The removal itself is one slice deletion.
        """
        released: List[Extent] = []
        maps = self._maps
        end = vaddr + length
        idx = bisect.bisect_right(self._vaddrs, vaddr) - 1
        if idx < 0 or maps[idx].vend <= vaddr:
            idx += 1
        stop = bisect.bisect_left(self._vaddrs, end, idx)
        for pos in range(idx, stop):
            m = maps[pos]
            if m.vaddr < vaddr or m.vaddr + m.page_size > end:
                del self._vaddrs[idx:pos], maps[idx:pos]
                raise ReproError(
                    f"partial unmap of a {m.page_size}-byte page at "
                    f"{m.vaddr:#x} (range [{vaddr:#x}, +{length:#x}))")
            released.append(Extent(m.paddr // PAGE_SIZE,
                                   m.page_size // PAGE_SIZE))
        del self._vaddrs[idx:stop], maps[idx:stop]
        return released

    # -- lookup ------------------------------------------------------------

    def lookup(self, vaddr: int) -> Mapping:
        """The mapping covering ``vaddr`` (PageFault if none)."""
        idx = bisect.bisect_right(self._vaddrs, vaddr) - 1
        if idx >= 0:
            m = self._maps[idx]
            if m.vaddr <= vaddr < m.vend:
                return m
        raise PageFault(self.owner, vaddr, "no mapping")

    def translate(self, vaddr: int) -> int:
        """Virtual to physical byte address."""
        m = self.lookup(vaddr)
        return m.paddr + (vaddr - m.vaddr)

    def _walk(self, vaddr: int, end: int) -> Iterator[Tuple[Mapping, int]]:
        """``(mapping, its end)`` for the mappings covering ``[vaddr, end)``,
        in address order.

        One bisect finds the first mapping; the rest follow in ``_maps``
        order.  Raises :class:`PageFault` at the first uncovered address,
        the same vaddr a per-page ``lookup`` walk would have faulted at.
        """
        maps = self._maps
        idx = bisect.bisect_right(self._vaddrs, vaddr) - 1
        va = vaddr
        while va < end:
            if not 0 <= idx < len(maps):
                raise PageFault(self.owner, va, "no mapping")
            m = maps[idx]
            vend = m.vaddr + m.page_size
            if not m.vaddr <= va < vend:
                raise PageFault(self.owner, va, "no mapping")
            yield m, vend
            va = vend
            idx += 1

    def is_pinned(self, vaddr: int, length: int) -> bool:
        """True if every page in the range is pinned."""
        return all(m.pinned for m, _ in self._walk(vaddr, vaddr + length))

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
        va, end = vaddr, vaddr + length
        for m, vend in self._walk(va, end):
            pa = m.paddr + (va - m.vaddr)
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

        Each mapping contributes its base pages arithmetically; there is
        no per-page translation.  One bisect finds the first mapping and
        a plain loop steps through the rest; :class:`PageFault` comes at
        the first uncovered address, as in :meth:`_walk`.  When the
        range's first and last pages start entries of their own, the
        entries between are exactly its 4KB pages (entries are aligned
        and never overlap), and one slice gives the answer.
        """
        # align down to a 4KB boundary, like gup does
        va = vaddr - vaddr % PAGE_SIZE
        end = vaddr + length
        maps, vaddrs = self._maps, self._vaddrs
        idx = bisect.bisect_right(vaddrs, va) - 1
        last = idx + (end - va - 1) // PAGE_SIZE
        if (end > va and idx >= 0 and last < len(vaddrs)
                and vaddrs[idx] == va
                and vaddrs[last] == va + (last - idx) * PAGE_SIZE):
            return [m.paddr for m in maps[idx:last + 1]]
        out: List[int] = []
        while va < end:
            if not 0 <= idx < len(maps):
                raise PageFault(self.owner, va, "no mapping")
            m = maps[idx]
            vend = m.vaddr + m.page_size
            if not m.vaddr <= va < vend:
                raise PageFault(self.owner, va, "no mapping")
            if m.page_size == PAGE_SIZE:
                out.append(m.paddr)  # va is page-aligned: the whole page
            else:
                pa = m.paddr + (va - m.vaddr)
                out.extend(range(pa, pa + min(vend, end) - va, PAGE_SIZE))
            va = vend
            idx += 1
        return out
