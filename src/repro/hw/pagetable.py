"""Per-process page tables with mixed 4KB / 2MB mappings.

The structure that matters for the paper is :meth:`PageTable.phys_spans`:
given a virtual range it yields the *physically contiguous* spans backing
it, merged across page boundaries.  The Linux HFI1 driver never exploits
contiguity (it chops everything to PAGE_SIZE); the HFI PicoDriver walks
these spans directly and builds SDMA requests up to 10KB (section 3.4).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from ..errors import PageFault, ReproError
from ..units import LARGE_PAGE_SIZE, PAGE_SIZE
from .memory import Extent


@dataclass(frozen=True)
class Mapping:
    """One page-table entry at natural granularity."""

    vaddr: int       # virtual start (aligned to page_size)
    paddr: int       # physical start (aligned to page_size)
    page_size: int   # PAGE_SIZE or LARGE_PAGE_SIZE
    pinned: bool = False

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
        """
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
                self.map_page(va, pa, step, pinned)
                va += step
                pa += step
                nbytes -= step
        return va

    def unmap_range(self, vaddr: int, length: int) -> List[Extent]:
        """Remove all mappings intersecting ``[vaddr, vaddr+length)``;
        returns the physical extents released (frame numbers)."""
        released: List[Extent] = []
        idx = bisect.bisect_right(self._vaddrs, vaddr) - 1
        if idx < 0 or self._maps[idx].vend <= vaddr:
            idx += 1
        while idx < len(self._maps) and self._maps[idx].vaddr < vaddr + length:
            m = self._maps[idx]
            if m.vaddr < vaddr or m.vend > vaddr + length:
                raise ReproError(
                    f"partial unmap of a {m.page_size}-byte page at "
                    f"{m.vaddr:#x} (range [{vaddr:#x}, +{length:#x}))")
            released.append(Extent(m.paddr // PAGE_SIZE,
                                   m.page_size // PAGE_SIZE))
            del self._vaddrs[idx]
            del self._maps[idx]
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
        no per-page translation.
        """
        out: List[int] = []
        # align down to a 4KB boundary, like gup does
        va = vaddr - vaddr % PAGE_SIZE
        end = vaddr + length
        for m, vend in self._walk(va, end):
            if m.page_size == PAGE_SIZE:
                out.append(m.paddr)  # va is page-aligned: the whole page
            else:
                pa = m.paddr + (va - m.vaddr)
                out.extend(range(pa, pa + min(vend, end) - va, PAGE_SIZE))
            va = vend
        return out
