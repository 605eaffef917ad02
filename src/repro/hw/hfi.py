"""The Host Fabric Interface (HFI) network device.

Models the pieces of Intel's OmniPath HFI that the paper's analysis hinges
on (section 2.2):

* a PIO send path driven entirely from user space (small messages),
* 16 SDMA engines, each with a bounded descriptor ring; descriptors carry a
  *physically contiguous* byte span and the hardware accepts spans up to
  10KB — whether a driver exploits that is the whole point of Figure 4,
* the RcvArray of expected-receive (TID) entries programmed via ``ioctl``,
* completion interrupts delivered to the host when a submitted request
  group finishes.

Cost model: serializing a descriptor onto the link costs
``sdma_desc_overhead + nbytes / link_bandwidth`` while holding the node's
egress port; PIO costs ``pio_overhead + nbytes / pio_bandwidth``.  The
per-descriptor overhead times the descriptor count is what separates a
4KB-chopping driver from a 10KB-coalescing one.

Host representation: every simulated cost, counter and fault draw stays
per descriptor and per RcvArray entry, but the state is kept per request.
A :class:`DescriptorChain` holds a request's descriptors as two columns,
an engine ring holds segments of chains with a count of occupied slots,
and each receive context's share of the RcvArray is one
:class:`TidRanges` with a record per ``program_tids`` call (its TID
range and the caller's span list) — the one record of which TIDs the
context owns; the :class:`SdmaDescriptor` and :class:`TidEntry` records
are built only when a caller iterates a chain or looks an entry up.  The
``range`` a registration returns travels unchanged through the drivers,
PSM and :attr:`Packet.tids`, so a whole window is checked on arrival and
freed in one step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain, repeat
from operator import add, itemgetter
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from ..config import PLANES
from ..errors import DriverError, ReproError
from ..obs.spans import track_of
from ..params import NicParams
from ..sim import Event, Resource, Simulator, Store, Tracer
from .irq import dispatch_irq
from .record import Record

#: the fault points each SDMA descriptor fetch is an opportunity of, in
#: draw order
SDMA_FAULT_POINTS = ("sdma.desc_error", "sdma.engine_halt")


class SdmaDescriptor(Record):
    """One SDMA transfer request: a physically contiguous span."""

    __slots__ = ("paddr", "nbytes")

    def __init__(self, paddr: int, nbytes: int):
        self.paddr = paddr
        self.nbytes = nbytes


class DescriptorChain:
    """One request's SDMA descriptors as two columns: descriptor ``i``
    is ``sizes[i]`` bytes at physical address ``paddrs[i]``.

    Iterating or indexing a chain yields :class:`SdmaDescriptor` records,
    built on the fly; the engine reads ``sizes`` directly.
    """

    __slots__ = ("paddrs", "sizes")

    def __init__(self, paddrs: List[int], sizes: List[int]):
        self.paddrs = paddrs
        self.sizes = sizes

    @classmethod
    def of(cls, descriptors: Iterable[SdmaDescriptor]) -> "DescriptorChain":
        """The chain of a sequence of descriptor records."""
        descs = list(descriptors)
        return cls([d.paddr for d in descs], [d.nbytes for d in descs])

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[SdmaDescriptor]:
        return map(SdmaDescriptor, self.paddrs, self.sizes)

    def __getitem__(self, i: int) -> SdmaDescriptor:
        return SdmaDescriptor(self.paddrs[i], self.sizes[i])


@dataclass
class SdmaRequestGroup:
    """All descriptors generated from one ``writev()`` call, plus the
    completion callback the driver associated with the transfer
    (section 2.2.2: callbacks perform notification and metadata cleanup).

    ``descriptors`` may be given as any sequence of
    :class:`SdmaDescriptor`; it is turned into a :class:`DescriptorChain`
    once, at construction."""

    descriptors: DescriptorChain
    packet: "Packet"
    on_complete: Optional[Callable[["SdmaRequestGroup"], None]] = None
    meta_addrs: List[int] = field(default_factory=list)
    #: completion function *pointer* — an address in the owner kernel's
    #: TEXT, invoked by the Linux IRQ handler through the cross-kernel
    #: callback registry (used by the full driver stack; unit tests may
    #: use the plain ``on_complete`` closure instead)
    callback_addr: Optional[int] = None
    #: opaque context threaded to the completion callback (completion
    #: events, struct views, ...)
    user_ctx: object = None
    #: traced runs only: the submitting span (``hfi1.writev`` /
    #: ``pico.writev``), the flow source for descriptor and IRQ spans
    trace_ctx: object = None

    def __post_init__(self) -> None:
        if not isinstance(self.descriptors, DescriptorChain):
            self.descriptors = DescriptorChain.of(self.descriptors)

    @property
    def total_bytes(self) -> int:
        return sum(self.descriptors.sizes)


class TidEntry(Record):
    """One programmed RcvArray entry."""

    __slots__ = ("tid", "ctxt_id", "paddr", "nbytes")

    def __init__(self, tid: int, ctxt_id: int, paddr: int, nbytes: int):
        self.tid = tid
        self.ctxt_id = ctxt_id
        self.paddr = paddr
        self.nbytes = nbytes


class TidRanges:
    """A set of TIDs kept as disjoint ranges in increasing order, one
    record per range, each with a caller's value.

    TIDs are handed out in increasing order, so :meth:`add` appends, and
    one bisect over the record starts finds the record of any TID.  Two
    arguments are answered without touching their TIDs: a step-1
    ``range`` inside one record (:meth:`first_missing`) and a ``range``
    equal to one record (:meth:`remove`).  Any other sequence takes the
    general path, one TID at a time; removing part of a record splits
    it.  Each receive context's share of the RcvArray is one of these.
    """

    __slots__ = ("_starts", "_stops", "_values", "_count")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._stops: List[int] = []
        self._values: List[object] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        """Every TID in the set, in increasing order."""
        return chain.from_iterable(map(range, self._starts, self._stops))

    def add(self, tids: range, value: object = None) -> None:
        """Append the step-1 range ``tids``, above every TID in the set,
        as one record; an empty range adds nothing."""
        if tids:
            self._starts.append(tids.start)
            self._stops.append(tids.stop)
            self._values.append(value)
            self._count += len(tids)

    def find(self, tid: int) -> int:
        """The index of the record holding ``tid``, or -1."""
        i = bisect_right(self._starts, tid) - 1
        return i if i >= 0 and tid < self._stops[i] else -1

    def value(self, i: int) -> object:
        """The value of record ``i`` (an index from :meth:`find`)."""
        return self._values[i]

    def record(self, tids: Sequence[int]) -> int:
        """The index of the record ``tids`` is exactly, or -1 unless
        ``tids`` is a non-empty step-1 ``range``."""
        if type(tids) is range and tids.step == 1 and tids:
            i = bisect_left(self._starts, tids.start)
            if (i < len(self._starts) and self._starts[i] == tids.start
                    and self._stops[i] == tids.stop):
                return i
        return -1

    def first_missing(self, tids: Sequence[int]) -> Optional[int]:
        """The first of ``tids``, in their order, not in the set, or
        ``None`` when all are."""
        if type(tids) is range and tids.step == 1 and tids:
            i = self.find(tids.start)
            if i >= 0 and tids.stop <= self._stops[i]:
                return None
        for tid in tids:
            if self.find(tid) < 0:
                return tid
        return None

    def remove(self, tids: Sequence[int]) -> None:
        """Drop ``tids``; each must be in the set and listed once.

        A range equal to one record drops that record.  Otherwise the
        records are rebuilt around the dropped TIDs, keeping the pieces
        of each record on either side of them with the record's value.
        """
        i = self.record(tids)
        if i >= 0:
            self._count -= self._stops[i] - self._starts[i]
            del self._starts[i], self._stops[i], self._values[i]
            return
        doomed = sorted(tids)
        if not doomed:
            return
        starts: List[int] = []
        stops: List[int] = []
        values: List[object] = []
        j = 0
        for lo, hi, value in zip(self._starts, self._stops, self._values):
            while j < len(doomed) and doomed[j] < hi:
                if doomed[j] > lo:
                    starts.append(lo)
                    stops.append(doomed[j])
                    values.append(value)
                lo = doomed[j] + 1
                j += 1
            if lo < hi:
                starts.append(lo)
                stops.append(hi)
                values.append(value)
        self._starts, self._stops, self._values = starts, stops, values
        self._count -= len(doomed)


class Packet(NamedTuple):
    """A logical message on the fabric (serialization is modeled at the
    sender, so one packet represents the whole transfer).

    An immutable record, built once per message, so a ``NamedTuple``
    (cheap to build): a field cannot be assigned, and :meth:`replace`
    returns a changed copy.  Two packets are equal, and hash equal,
    when all their fields are."""

    kind: str              # "eager" | "expected" | "rts" | "cts" | "ack"
    src_node: int
    dst_node: int
    dst_ctxt: int
    nbytes: int
    tag: object = None
    payload: object = None
    #: expected packets: the window's TIDs, normally the ``range`` the
    #: receiver's TID_UPDATE returned (any sequence of TIDs is accepted)
    tids: Sequence[int] = ()
    #: reliability sequence number (chaos runs only; ``None`` otherwise)
    seq: object = None
    #: payload integrity checksum (chaos runs only; ``None`` otherwise)
    csum: Optional[int] = None
    #: traced runs only: the span that put this packet on the wire (not
    #: part of the message identity; excluded from the checksum)
    trace: object = None

    def replace(self, **changes) -> "Packet":
        """A copy of this packet with ``changes`` applied."""
        return self._replace(**changes)


class RcvContext:
    """A receive context (one per open device file / PSM endpoint)."""

    def __init__(self, ctxt_id: int, owner: str):
        self.ctxt_id = ctxt_id
        self.owner = owner
        #: the context's programmed RcvArray entries, one record per
        #: program_tids call valued ``(first tid, spans)``: TID t's span
        #: is ``spans[t - first tid]``
        self.tids = TidRanges()
        self.eager_backlog: Deque[Packet] = deque()
        self._on_packet: Optional[Callable[[Packet], None]] = None

    @property
    def on_packet(self) -> Optional[Callable[[Packet], None]]:
        """The installed packet handler (``None`` before endpoint init)."""
        return self._on_packet

    @on_packet.setter
    def on_packet(self, handler: Optional[Callable[[Packet], None]]) -> None:
        # Packets that arrived before the endpoint installed its handler
        # sit in eager_backlog; drain them in arrival order the moment a
        # handler appears so early arrivals are not stranded forever.
        self._on_packet = handler
        if handler is not None:
            while self.eager_backlog:
                handler(self.eager_backlog.popleft())

    def deliver(self, packet: Packet) -> None:
        """Hand a packet to the context's handler (or queue it)."""
        if self._on_packet is not None:
            self._on_packet(packet)
        else:
            self.eager_backlog.append(packet)


class _SerializationCost(dict):
    """Descriptor size -> ``overhead + nbytes / bandwidth``, the time one
    descriptor holds the link; each size is computed once, on first use."""

    __slots__ = ("overhead", "bandwidth")

    def __init__(self, overhead: float, bandwidth: float):
        super().__init__()
        self.overhead = overhead
        self.bandwidth = bandwidth

    def __missing__(self, nbytes: int) -> float:
        cost = self[nbytes] = self.overhead + nbytes / self.bandwidth
        return cost


#: one ring segment: descriptors ``[lo, hi)`` of ``group``'s chain (its
#: ``sizes`` column), whether ``hi`` ends the group, and the segment's
#: per-descriptor trace spans (``None`` when untraced)
_RingSegment = Tuple["SdmaRequestGroup", List[int], int, int, bool,
                    Optional[List[object]]]


class SdmaEngine:
    """One SDMA engine: a bounded descriptor ring drained onto the link.

    The engine drains its ring in batches while holding the egress port;
    ring space is released as descriptors complete, unblocking submitters
    (the driver blocks in ``writev`` when the ring is full).

    The ring holds segments of request chains, not one entry per
    descriptor; ``_used`` counts the descriptors in it, and every slot
    count (free slots, ring-full blocking, the congestion gate) is in
    descriptors as before.

    The drain loop is a detached process started by the first kick
    (``sim.spawn``), so an engine nobody submits to costs no process
    and no event; its start event takes the FIFO slot the first
    wake-up would have.  A failure in the loop (an IRQ with no
    dispatcher) propagates out of ``sim.run``.
    """

    def __init__(self, sim: Simulator, device: "HFIDevice", index: int):
        self.sim = sim
        self.device = device
        self.index = index
        self.ring_size = device.params.sdma_ring_size
        self._ring: Deque[_RingSegment] = deque()
        #: descriptors in the ring (occupied slots)
        self._used = 0
        self._space_waiters: Deque[Event] = deque()
        self._work = Store(sim, name=f"sdma{index}.work")
        #: whether the drain loop runs (it starts on the first kick)
        self._started = False
        self.busy = False
        #: True between a hardware halt and the driver's restart
        self.halted = False
        self._restart_evt: Optional[Event] = None
        #: optional :class:`repro.guard.CongestionGate` bounding this
        #: engine's outstanding descriptors (installed by the machine
        #: builder when the guard plane is enabled; ``None`` otherwise)
        self.gate = None

    @property
    def free_slots(self) -> int:
        return self.ring_size - self._used

    def halt(self, reason: str) -> None:
        """Freeze the engine (descriptor error / spontaneous halt) and
        raise the error interrupt so the driver can recover it.

        Ring contents are preserved; draining resumes after
        :meth:`restart`."""
        if self.halted:
            return
        self.halted = True
        self._restart_evt = Event(self.sim)
        self.device.tracer.count("hfi.sdma_halts")
        self.device.raise_error_irq(self, reason)

    def restart(self) -> None:
        """Driver-side recovery completed: resume draining the ring.

        Idempotent — restarting a running engine is a no-op, so the
        driver's recovery path is safe to run against an engine whose
        shared-heap state was frozen without a hardware halt."""
        if not self.halted:
            return
        self.halted = False
        self.device.tracer.count("hfi.sdma_restarts")
        evt, self._restart_evt = self._restart_evt, None
        if evt is not None:
            evt.succeed()

    def submit(self, group: SdmaRequestGroup):
        """Generator: enqueue every descriptor of ``group``, blocking on
        ring space.  Yields until fully submitted (completion is signalled
        separately through the IRQ path).

        The group is validated in one pass, then enqueued one segment per
        run of free slots."""
        sizes = group.descriptors.sizes
        n = len(sizes)
        if not n:
            raise DriverError("empty SDMA request group")
        if min(sizes) <= 0:
            raise DriverError(f"bad descriptor size {min(sizes)}")
        hw_max = self.device.params.sdma_max_request
        if max(sizes) > hw_max:
            raise DriverError(
                f"descriptor of {max(sizes)}B exceeds hardware max "
                f"{hw_max}B")
        if self.gate is not None:
            # congestion watermarks: park (FIFO) while the engine is over
            # its high mark instead of racing the ring-full wait below
            yield from self.gate.acquire_slots(n)
        ring = self._ring
        done = 0
        while done < n:
            while self.free_slots == 0:
                waiter = Event(self.sim)
                self._space_waiters.append(waiter)
                yield waiter
            stop = min(n, done + self.free_slots)
            # Span = descriptor lifetime on the ring (enqueue to drain);
            # it nests under the submitting writev span via the lane.
            spans = [PLANES.trace.begin_span(
                "sdma.desc", track_of(self), cat="sdma",
                args={"nbytes": nbytes, "kind": group.packet.kind},
                detached=True) for nbytes in sizes[done:stop]] \
                if PLANES.trace is not None else None
            kick = not ring and not self.busy
            ring.append((group, sizes, done, stop, stop == n, spans))
            self._used += stop - done
            if kick:
                self._kick()
            done = stop

    def _kick(self) -> None:
        """Wake the drain loop, starting it on the first kick."""
        if self._started:
            self._work.put(None)
        else:
            self._started = True
            self.sim.spawn(self._run())

    def _run(self):
        params = self.device.params
        cost = _SerializationCost(params.sdma_desc_overhead,
                                  params.link_bandwidth).__getitem__
        ring = self._ring
        while True:
            if self.halted:
                yield self._restart_evt
                continue
            if not ring:
                yield self._work.get()
                continue
            self.busy = True
            # Drain the current ring contents in one serialization burst.
            with self.device.egress.request() as port:
                yield port
                t0 = self.sim.now
                # whether fault draws happen is settled once per burst.
                # Each descriptor is one opportunity of both SDMA fault
                # points: quiet_run draws those before the first firing
                # in one call, and the firing one is drawn with fires,
                # per point and in order, as the per-descriptor loop did
                inj = self.device.injector
                sizes: List[int] = []
                #: (group, is-last, span, finish offset) of the
                #: descriptors with work after the burst: group ends, and
                #: every descriptor when traced
                marks: List[Tuple[SdmaRequestGroup, bool, object, float]] = []
                t = 0.0
                while ring:
                    n = 0 if self.halted else self._used
                    if inj is not None:
                        n = inj.quiet_run(SDMA_FAULT_POINTS, n)
                        if n == 0:
                            # a point fires at the head descriptor, or the
                            # engine halted while this burst waited for
                            # the port
                            if inj.fires("sdma.desc_error"):
                                self.halt("descriptor fetch error")
                            if inj.fires("sdma.engine_halt"):
                                self.halt("spontaneous engine freeze")
                            n = 0 if self.halted else 1
                    if n == 0:
                        break
                    self._used -= n
                    while n:
                        group, gsizes, lo, hi, ends, spans = ring[0]
                        stop = min(hi, lo + n)
                        chunk = gsizes[lo:stop]
                        sizes += chunk
                        last = ends and stop == hi
                        # left to right, as one t += cost per descriptor
                        if spans is None:
                            t = reduce(add, map(cost, chunk), t)
                            if last:
                                marks.append((group, True, None, t))
                        else:
                            done_at = list(accumulate(map(cost, chunk), add,
                                                      initial=t))
                            del done_at[0]
                            t = done_at[-1]
                            marks += zip(repeat(group), repeat(False),
                                         spans, done_at)
                            if last:
                                marks[-1] = (group, True, spans[-1], t)
                        if stop == hi:
                            ring.popleft()
                        else:
                            ring[0] = (group, gsizes, stop, hi, ends,
                                       None if spans is None
                                       else spans[stop - lo:])
                        n -= stop - lo
                yield from self.sim.delay(t)
            self.busy = False
            if sizes:
                tracer = self.device.tracer
                tracer.count("hfi.sdma_descs", len(sizes))
                tracer.record_many("hfi.sdma_desc_bytes", sizes)
            for group, is_last, dspan, t_done in marks:
                if dspan is not None:
                    # each descriptor leaves the wire at its own point in
                    # the burst, not at the shared burst-end timestamp
                    dspan.end = t0 + t_done
                if is_last:
                    if dspan is not None:
                        # hand the last descriptor's span to the wire/IRQ
                        group.packet = group.packet.replace(trace=dspan)
                    self.device._transmit(group.packet)
                    self.device.raise_irq(group)
            if self.gate is not None and sizes:
                self.gate.release_slots(len(sizes))
            while self._space_waiters and self.free_slots > 0:
                self._space_waiters.popleft().succeed()


class HFIDevice:
    """One HFI per node: PIO path, SDMA engines, RcvArray, IRQ line."""

    def __init__(self, sim: Simulator, params: NicParams, node_id: int,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.tracer = tracer if tracer is not None else Tracer()
        #: the node's egress port (engines and PIO share it)
        self.egress = Resource(sim, capacity=1, name=f"hfi{node_id}.egress")
        self.engines = [SdmaEngine(sim, self, i)
                        for i in range(params.sdma_engines)]
        self._next_engine = 0
        self._contexts: Dict[int, RcvContext] = {}
        self._next_ctxt = 0
        self._next_tid = 0
        self.fabric = None  # set by Fabric.attach
        #: installed by the Linux interrupt subsystem at driver load
        self.irq_dispatcher: Optional[Callable[[SdmaRequestGroup], None]] = None
        #: installed by the hfi1 driver: SDMA engine error interrupts
        self.error_dispatcher: Optional[Callable[[SdmaEngine, str], None]] = None
        #: optional :class:`repro.faults.FaultInjector` (chaos runs only)
        self.injector = None

    # -- contexts ----------------------------------------------------------

    def alloc_context(self, owner: str) -> RcvContext:
        """Allocate a receive context (one per open device file)."""
        ctxt = RcvContext(self._next_ctxt, owner)
        self._contexts[self._next_ctxt] = ctxt
        self._next_ctxt += 1
        return ctxt

    def free_context(self, ctxt: RcvContext) -> None:
        """Release a context; its TID entries go with it.

        Raises :class:`DriverError` if an SDMA request group still in
        flight would deliver to this context once its engine drains —
        freeing underneath it would silently hand packets to a dead
        context (the driver must quiesce its transfers first).
        """
        inflight = sum(
            1 for eng in self.engines
            for group, _sizes, _lo, _hi, ends, _spans in eng._ring
            if ends and group.packet.dst_node == self.node_id
            and group.packet.dst_ctxt == ctxt.ctxt_id)
        if inflight:
            self.tracer.count("hfi.free_ctxt_inflight")
            raise DriverError(
                f"free of context {ctxt.ctxt_id} with {inflight} SDMA "
                f"group(s) in flight targeting it")
        self._contexts.pop(ctxt.ctxt_id, None)

    def context(self, ctxt_id: int) -> RcvContext:
        """Look up a receive context by id."""
        try:
            return self._contexts[ctxt_id]
        except KeyError:
            raise DriverError(f"no receive context {ctxt_id}")

    # -- SDMA ---------------------------------------------------------------

    def pick_engine(self) -> SdmaEngine:
        """Round-robin engine reservation (the driver 'reserves an SDMA
        engine', section 2.2.2)."""
        eng = self.engines[self._next_engine]
        self._next_engine = (self._next_engine + 1) % len(self.engines)
        return eng

    # -- PIO ------------------------------------------------------------------

    def pio_send(self, packet: Packet):
        """Generator: programmed-I/O send executed in the caller's context
        (user-space driven; no driver involvement)."""
        if packet.nbytes > self.params.pio_threshold:
            # PSM would never do this, but the hardware allows it; account
            # honestly instead of rejecting.
            self.tracer.count("hfi.pio_oversize")
        span = PLANES.trace.begin_span(
            "hfi.pio", track_of(self), cat="pio",
            args={"kind": packet.kind, "nbytes": packet.nbytes}) \
            if PLANES.trace is not None else None
        try:
            with self.egress.request() as port:
                yield port
                yield from self.sim.delay(
                    self.params.pio_overhead
                    + packet.nbytes / self.params.pio_bandwidth)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.tracer.count("hfi.pio_msgs")
        if span is not None:
            packet = packet.replace(trace=span)
        self._transmit(packet)

    # -- RcvArray / TIDs -------------------------------------------------------

    @property
    def tids_in_use(self) -> int:
        return sum(len(ctxt.tids) for ctxt in self._contexts.values())

    def program_tids(self, ctxt: RcvContext,
                     spans: List[Tuple[int, int]]) -> range:
        """Program RcvArray entries for physically contiguous
        ``(paddr, nbytes)`` spans; returns the range of TIDs programmed,
        one per span in order.

        Each span must fit one entry (``tid_max_span``); callers split
        larger spans first.  Raises when the RcvArray is exhausted.  The
        whole request is checked before any entry is installed, so a
        rejected request leaves the RcvArray and the TID counter as they
        were.  The entries are one record that keeps ``spans`` itself,
        so the caller hands over a list it no longer changes.
        """
        if self.tids_in_use + len(spans) > self.params.rcv_array_entries:
            raise DriverError(
                f"RcvArray exhausted: {self.tids_in_use} in use, "
                f"{len(spans)} requested, {self.params.rcv_array_entries} total")
        if spans:
            sizes = list(map(itemgetter(1), spans))
            if min(sizes) <= 0:
                raise DriverError(f"bad TID span size {min(sizes)}")
            if max(sizes) > self.params.tid_max_span:
                raise DriverError(
                    f"TID span {max(sizes)}B exceeds entry max "
                    f"{self.params.tid_max_span}B")
        tids = range(self._next_tid, self._next_tid + len(spans))
        self._next_tid = tids.stop
        ctxt.tids.add(tids, (tids.start, spans))
        self.tracer.count("hfi.tids_programmed", len(tids))
        return tids

    def unprogram_tids(self, ctxt: RcvContext, tids: Sequence[int]) -> None:
        """Invalidate ``ctxt``'s RcvArray entries (TID_FREE).

        Every TID must be programmed for ``ctxt`` and listed once;
        otherwise nothing is invalidated.  The range of one
        ``program_tids`` call is freed in one step; any other sequence
        is checked TID by TID."""
        entries = ctxt.tids
        if entries.record(tids) < 0:
            doomed = set(tids)
            if len(doomed) != len(tids):
                raise DriverError(
                    f"unprogram lists a TID twice: {list(tids)}")
            unknown = entries.first_missing(sorted(doomed))
            if unknown is not None:
                raise DriverError(f"unprogram of unknown TID {unknown}")
        entries.remove(tids)
        self.tracer.count("hfi.tids_unprogrammed", len(tids))

    def tid_entry(self, tid: int) -> TidEntry:
        """Look up a programmed RcvArray entry."""
        for ctxt in self._contexts.values():
            i = ctxt.tids.find(tid)
            if i >= 0:
                first, spans = ctxt.tids.value(i)
                paddr, nbytes = spans[tid - first]
                return TidEntry(tid, ctxt.ctxt_id, paddr, nbytes)
        raise DriverError(f"unknown TID {tid}")

    # -- fabric interface ---------------------------------------------------------

    def _transmit(self, packet: Packet) -> None:
        if self.fabric is None:
            raise ReproError(f"HFI {self.node_id} not attached to a fabric")
        self.tracer.record("hfi.tx_bytes", packet.nbytes)
        self.fabric.transmit(packet)

    def receive(self, packet: Packet) -> None:
        """Called by the fabric when a packet arrives at this node."""
        ctxt = self._contexts.get(packet.dst_ctxt)
        if packet.kind == "expected":
            # validates hardware state: every TID must be programmed in
            # the destination context's share (a freed context has none)
            bad = (ctxt.tids.first_missing(packet.tids) if ctxt is not None
                   else next(iter(packet.tids), None))
            if bad is not None:
                # Under fault injection a retransmit can outlive its
                # window's RcvArray entries (the flow failed and freed
                # them); real hardware discards writes to invalidated
                # entries, so drop the stale packet instead of raising.
                if self.injector is not None:
                    self.tracer.count("hfi.rx_stale_tid")
                    return
                raise DriverError(f"unknown TID {bad}")
            self.tracer.count("hfi.rx_expected")
        else:
            self.tracer.count(f"hfi.rx_{packet.kind}")
        if ctxt is None:
            if self.injector is not None:
                self.tracer.count("hfi.rx_dead_ctxt")
                return
            raise DriverError(f"no receive context {packet.dst_ctxt}")
        ctxt.deliver(packet)

    # -- interrupts -----------------------------------------------------------------

    def raise_irq(self, group: SdmaRequestGroup) -> None:
        """SDMA completion interrupt (section 2.2.2)."""
        self.tracer.count("hfi.irq")
        if self.irq_dispatcher is None:
            raise ReproError(
                f"HFI {self.node_id}: IRQ raised with no dispatcher "
                f"(driver not loaded?)")
        inj = self.injector
        if inj is not None and inj.fires("irq.lost"):
            # The interrupt is dropped on the floor; the driver's
            # completion watchdog notices the stuck request much later
            # and redelivers (modeled as one deferred dispatch).
            self.sim.timeout(inj.plan.irq_recovery_timeout).add_callback(
                lambda _evt: self._recover_irq(group))
            return
        dispatch_irq(self.irq_dispatcher, group)

    def _recover_irq(self, group: SdmaRequestGroup) -> None:
        self.tracer.count("hfi.irq_recovered")
        dispatch_irq(self.irq_dispatcher, group)

    def raise_error_irq(self, engine: SdmaEngine, reason: str) -> None:
        """SDMA engine error interrupt (halt detected in hardware)."""
        self.tracer.count("hfi.sdma_err_irqs")
        if self.error_dispatcher is None:
            raise ReproError(
                f"HFI {self.node_id}: SDMA error IRQ ({reason}) with no "
                f"error dispatcher (driver not loaded?)")
        dispatch_irq(self.error_dispatcher, engine, reason)
