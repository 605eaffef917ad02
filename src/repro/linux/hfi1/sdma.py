"""SDMA descriptor-chain construction.

The central asymmetry of the paper lives here:

* :func:`build_descs_from_pages` — what the Linux driver does: iterate the
  page list returned by ``get_user_pages()`` and emit one request per base
  page, never exceeding ``PAGE_SIZE`` "because page boundaries must be
  checked carefully" (section 3.4).  Physically contiguous neighbours and
  large pages are invisible to it.

* :func:`build_descs_from_spans` — what the HFI PicoDriver does: walk the
  physically contiguous spans of pinned LWK page tables and emit requests
  up to the hardware maximum (10KB).

Both return a :class:`~repro.hw.hfi.DescriptorChain`: the descriptors as
a column of physical addresses and a column of sizes, built from the page
list by list slicing rather than one record per descriptor.  The chain
has exactly the descriptors a per-page loop would emit.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Tuple

from ...errors import DriverError
from ...hw.hfi import DescriptorChain
from ...units import PAGE_SIZE


def _page_columns(pages: List[int], offset: int,
                  length: int) -> Tuple[List[int], List[int]]:
    """``(paddrs, sizes)`` per base page for ``length`` bytes that start
    ``offset`` bytes into the first of ``pages``: a partial first page,
    whole middle pages and a partial last page."""
    end = offset + length
    npages = -(-end // PAGE_SIZE)
    if len(pages) < npages:
        covered = max(0, len(pages) * PAGE_SIZE - offset)
        raise DriverError(f"page list covers only {covered} of {length} bytes")
    if npages <= 1:
        return ([pages[0] + offset], [length]) if npages else ([], [])
    paddrs = [pages[0] + offset]
    paddrs += pages[1:npages]
    sizes = [PAGE_SIZE - offset]
    sizes += repeat(PAGE_SIZE, npages - 2)
    sizes.append(end - (npages - 1) * PAGE_SIZE)
    return paddrs, sizes


def page_spans(pages: List[int], offset: int,
               length: int) -> List[Tuple[int, int]]:
    """``(paddr, nbytes)`` per base page for ``length`` bytes that start
    ``offset`` bytes into the first of ``pages``.

    The spans are a partial first page, whole middle pages and a partial
    last page; neighbouring pages stay separate even when physically
    contiguous.  Pages beyond the end of the range are ignored.
    """
    return list(zip(*_page_columns(pages, offset, length)))


def build_descs_from_pages(pages: List[int], offset: int, length: int,
                           max_request: int = PAGE_SIZE) -> DescriptorChain:
    """Linux-driver style: one descriptor per base page.

    ``pages`` are the physical addresses of consecutive 4KB pages backing
    the buffer; ``offset`` is the byte offset into the first page.
    """
    if length <= 0:
        raise DriverError(f"bad SDMA length {length}")
    if offset >= PAGE_SIZE:
        raise DriverError(f"offset {offset} outside the first page")
    if max_request < PAGE_SIZE:
        raise DriverError(
            f"max_request {max_request} is below PAGE_SIZE ({PAGE_SIZE}): "
            f"the Linux driver submits one whole base page per descriptor")
    # A larger max_request changes nothing: the Linux driver never exceeds
    # PAGE_SIZE even though the hardware accepts more (section 3.4).
    return DescriptorChain(*_page_columns(pages, offset, length))


def build_descs_from_spans(spans: List[Tuple[int, int]],
                           max_request: int) -> DescriptorChain:
    """PicoDriver style: chop physically contiguous spans at the hardware
    maximum only."""
    if max_request <= 0:
        raise DriverError(f"bad max request size {max_request}")
    paddrs: List[int] = []
    sizes: List[int] = []
    for pa, nbytes in spans:
        if nbytes <= 0:
            raise DriverError(f"bad span length {nbytes}")
        full, rest = divmod(nbytes, max_request)
        tail = pa + full * max_request
        paddrs += range(pa, tail, max_request)
        sizes += repeat(max_request, full)
        if rest:
            paddrs.append(tail)
            sizes.append(rest)
    return DescriptorChain(paddrs, sizes)


def split_spans_for_tids(spans: List[Tuple[int, int]],
                         max_span: int) -> List[Tuple[int, int]]:
    """Split physical spans so each fits one RcvArray entry."""
    out: List[Tuple[int, int]] = []
    for pa, nbytes in spans:
        off = 0
        while off < nbytes:
            chunk = min(max_span, nbytes - off)
            out.append((pa + off, chunk))
            off += chunk
    return out
