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
and the RcvArray stores ``(ctxt_id, span)`` per TID; the
:class:`SdmaDescriptor` and :class:`TidEntry` records are built only
when a caller iterates a chain or looks an entry up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import accumulate, repeat
from operator import add, itemgetter
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from ..config import PLANES
from ..errors import DriverError, ReproError
from ..obs.spans import track_of
from ..params import NicParams
from ..sim import Event, Resource, Simulator, Store, Tracer
from .irq import irq_enter, irq_exit
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
    #: kernel that allocated the metadata (decides which kfree the
    #: completion callback must use, section 3.3)
    owner_kernel: str = "linux"
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


@dataclass(frozen=True)
class Packet:
    """A logical message on the fabric (serialization is modeled at the
    sender, so one packet represents the whole transfer)."""

    kind: str              # "eager" | "expected" | "rts" | "cts" | "ack"
    src_node: int
    dst_node: int
    dst_ctxt: int
    nbytes: int
    tag: object = None
    payload: object = None
    tids: Tuple[int, ...] = ()
    #: reliability sequence number (chaos runs only; ``None`` otherwise)
    seq: object = None
    #: payload integrity checksum (chaos runs only; ``None`` otherwise)
    csum: Optional[int] = None
    #: traced runs only: the span that put this packet on the wire (not
    #: part of the message identity; excluded from the checksum)
    trace: object = None


class RcvContext:
    """A receive context (one per open device file / PSM endpoint)."""

    def __init__(self, ctxt_id: int, owner: str):
        self.ctxt_id = ctxt_id
        self.owner = owner
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
        self._proc = sim.process(self._run())
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
                self._work.put(None)  # kick the engine
            done = stop

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
                yield self.sim.timeout(t)
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
                        group.packet = replace(group.packet, trace=dspan)
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
        #: programmed RcvArray entries: tid -> (ctxt_id, (paddr, nbytes))
        self._tid_entries: Dict[int, Tuple[int, Tuple[int, int]]] = {}
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
        """Release a context and reclaim its TID entries.

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
        stale = [t for t, (ctxt_id, _span) in self._tid_entries.items()
                 if ctxt_id == ctxt.ctxt_id]
        for tid in stale:
            del self._tid_entries[tid]

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
                yield self.sim.timeout(
                    self.params.pio_overhead
                    + packet.nbytes / self.params.pio_bandwidth)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.tracer.count("hfi.pio_msgs")
        if span is not None:
            packet = replace(packet, trace=span)
        self._transmit(packet)

    # -- RcvArray / TIDs -------------------------------------------------------

    @property
    def tids_in_use(self) -> int:
        return len(self._tid_entries)

    def program_tids(self, ctxt: RcvContext,
                     spans: List[Tuple[int, int]]) -> range:
        """Program RcvArray entries for physically contiguous
        ``(paddr, nbytes)`` spans; returns the range of TIDs programmed,
        one per span in order.

        Each span must fit one entry (``tid_max_span``); callers split
        larger spans first.  Raises when the RcvArray is exhausted.  The
        whole request is checked before any entry is installed, so a
        rejected request leaves the RcvArray and the TID counter as they
        were.
        """
        if len(self._tid_entries) + len(spans) > self.params.rcv_array_entries:
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
        self._tid_entries.update(zip(tids, zip(repeat(ctxt.ctxt_id), spans)))
        self.tracer.count("hfi.tids_programmed", len(tids))
        return tids

    def unprogram_tids(self, tids: List[int]) -> None:
        """Invalidate RcvArray entries (TID_FREE).

        Every TID must be programmed and listed once; otherwise nothing
        is invalidated."""
        doomed = set(tids)
        if len(doomed) != len(tids):
            raise DriverError(f"unprogram lists a TID twice: {list(tids)}")
        unknown = doomed.difference(self._tid_entries)
        if unknown:
            raise DriverError(f"unprogram of unknown TID {min(unknown)}")
        for tid in tids:
            del self._tid_entries[tid]
        self.tracer.count("hfi.tids_unprogrammed", len(tids))

    def tid_entry(self, tid: int) -> TidEntry:
        """Look up a programmed RcvArray entry."""
        try:
            ctxt_id, (paddr, nbytes) = self._tid_entries[tid]
        except KeyError:
            raise DriverError(f"unknown TID {tid}")
        return TidEntry(tid, ctxt_id, paddr, nbytes)

    # -- fabric interface ---------------------------------------------------------

    def _transmit(self, packet: Packet) -> None:
        if self.fabric is None:
            raise ReproError(f"HFI {self.node_id} not attached to a fabric")
        self.tracer.record("hfi.tx_bytes", packet.nbytes)
        self.fabric.transmit(packet)

    def receive(self, packet: Packet) -> None:
        """Called by the fabric when a packet arrives at this node."""
        if packet.kind == "expected":
            # validates hardware state: every TID must be programmed
            entries = self._tid_entries
            if not entries.keys() >= set(packet.tids):
                # Under fault injection a retransmit can outlive its
                # window's RcvArray entries (the flow failed and freed
                # them); real hardware discards writes to invalidated
                # entries, so drop the stale packet instead of raising.
                if self.injector is not None:
                    self.tracer.count("hfi.rx_stale_tid")
                    return
                bad = next(t for t in packet.tids if t not in entries)
                raise DriverError(f"unknown TID {bad}")
            self.tracer.count("hfi.rx_expected")
        else:
            self.tracer.count(f"hfi.rx_{packet.kind}")
        ctxt = self._contexts.get(packet.dst_ctxt)
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
        # the top half runs in IRQ context on a Linux CPU (sec. 3.3);
        # lockdep attributes any lock taken inside to irq context
        irq_enter("linux")
        try:
            self.irq_dispatcher(group)
        finally:
            irq_exit("linux")

    def _recover_irq(self, group: SdmaRequestGroup) -> None:
        self.tracer.count("hfi.irq_recovered")
        irq_enter("linux")
        try:
            self.irq_dispatcher(group)
        finally:
            irq_exit("linux")

    def raise_error_irq(self, engine: SdmaEngine, reason: str) -> None:
        """SDMA engine error interrupt (halt detected in hardware)."""
        self.tracer.count("hfi.sdma_err_irqs")
        if self.error_dispatcher is None:
            raise ReproError(
                f"HFI {self.node_id}: SDMA error IRQ ({reason}) with no "
                f"error dispatcher (driver not loaded?)")
        irq_enter("linux")
        try:
            self.error_dispatcher(engine, reason)
        finally:
            irq_exit("linux")
