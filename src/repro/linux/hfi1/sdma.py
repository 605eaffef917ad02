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

Both return a :class:`~repro.hw.hfi.DescriptorChain` with exactly the
descriptors a per-page or per-chunk loop would emit, held per request:
the sizes as run-length runs (a partial first page, whole middle pages
and a partial last page; or full chunks plus a remainder per span) and
the physical addresses built from the page or span list only when a
caller reads them.  The TID registrations use the same chains:
:func:`page_spans` for the Linux driver's one entry per base page,
:func:`split_spans_for_tids` for the PicoDriver's entry-sized spans.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

from ...errors import DriverError
from ...hw.hfi import DescriptorChain, append_run
from ...units import PAGE_SIZE


def _page_paddrs(pages: List[int], offset: int, npages: int) -> List[int]:
    """The first of ``npages`` pages from ``offset``, then the rest."""
    paddrs = [pages[0] + offset]
    paddrs += pages[1:npages]
    return paddrs


def page_spans(pages: List[int], offset: int, length: int) -> DescriptorChain:
    """The spans, one per base page, of ``length`` bytes that start
    ``offset`` bytes into the first of ``pages``.

    The spans are a partial first page, whole middle pages and a partial
    last page; neighbouring pages stay separate even when physically
    contiguous.  Pages beyond the end of the range are ignored.  The runs
    come from the first, middle and last page alone, and the page list
    becomes the address column only when read.
    """
    end = offset + length
    npages = -(-end // PAGE_SIZE)
    if len(pages) < npages:
        covered = max(0, len(pages) * PAGE_SIZE - offset)
        raise DriverError(f"page list covers only {covered} of {length} bytes")
    if npages <= 1:
        return DescriptorChain([(length, 1)] if npages else [],
                               [pages[0] + offset] if npages else [])
    runs = [(PAGE_SIZE - offset, 1)]
    append_run(runs, PAGE_SIZE, npages - 2)
    append_run(runs, end - (npages - 1) * PAGE_SIZE, 1)
    return DescriptorChain(runs, partial(_page_paddrs, pages, offset, npages))


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
    return page_spans(pages, offset, length)


def _chop_paddrs(spans: List[Tuple[int, int]], limit: int) -> List[int]:
    """The start of every chunk :func:`_chop` cuts ``spans`` into."""
    paddrs: List[int] = []
    for pa, nbytes in spans:
        paddrs += range(pa, pa + nbytes, limit)
    return paddrs


def _chop(spans: List[Tuple[int, int]], limit: int,
          what: str) -> DescriptorChain:
    """``spans`` cut into chunks of at most ``limit`` bytes: per span,
    its full chunks, then the remainder.  A ``limit`` or a span length
    that is not positive is refused before anything is cut."""
    if limit <= 0:
        raise DriverError(f"bad {what} {limit}")
    runs: List[Tuple[int, int]] = []
    for _pa, nbytes in spans:
        if nbytes <= 0:
            raise DriverError(f"bad span length {nbytes}")
        full, rest = divmod(nbytes, limit)
        append_run(runs, limit, full)
        if rest:
            append_run(runs, rest, 1)
    return DescriptorChain(runs, partial(_chop_paddrs, spans, limit))


def build_descs_from_spans(spans: List[Tuple[int, int]],
                           max_request: int) -> DescriptorChain:
    """PicoDriver style: chop physically contiguous spans at the hardware
    maximum only."""
    return _chop(spans, max_request, "max request size")


def split_spans_for_tids(spans: List[Tuple[int, int]],
                         max_span: int) -> DescriptorChain:
    """Split physical spans so each fits one RcvArray entry: the chop of
    :func:`build_descs_from_spans` at the entry maximum, refused the same
    way when ``max_span`` or a span length is not positive."""
    return _chop(spans, max_span, "max TID span")
