"""PSM endpoints: the user-level communication API.

One endpoint per MPI rank: it opens the HFI device file (offloaded on
McKernel), owns a receive context, a matched queue and two progress
workers (tx: SDMA submissions, rx: TID registrations).  All protocol
decisions — PIO vs SDMA at the 64KB threshold, eager vs expected receive,
window pipelining — live here, exactly the layering of Figure 2.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..config import PLANES
from ..errors import (DeviceTimeout, ReproError, TransferCorrupt,
                      TransientDeviceError)
from ..hw.hfi import HFIDevice, Packet
from ..kernels.base import Task
from ..linux.hfi1 import ioctls as ioc
from ..obs.spans import track_of
from ..params import Params
from ..sim import Event, Simulator, Tracer
from .mq import MatchedQueue, MqRequest, TagMatcher, UnexpectedMessage
from .progress import ProgressWorker
from .transfer import (Cts, RecvFlow, Rts, SendFlow, packet_checksum,
                       window_count, window_extent)


class EndpointAddress(NamedTuple):
    """Network-wide endpoint identity."""

    node_id: int
    ctxt_id: int


class Endpoint:
    """One PSM endpoint bound to a task and an HFI."""

    def __init__(self, sim: Simulator, params: Params, hfi: HFIDevice,
                 task: Task, tracer: Optional[Tracer] = None,
                 device_path: str = "/dev/hfi1_0"):
        self.sim = sim
        self.params = params
        self.hfi = hfi
        self.task = task
        self.tracer = tracer if tracer is not None else Tracer()
        self.device_path = device_path
        self.mq = MatchedQueue(sim)
        self.tx = ProgressWorker(sim, f"{task.name}.tx")
        self.rx = ProgressWorker(sim, f"{task.name}.rx")
        self.fd: Optional[int] = None
        self.addr: Optional[EndpointAddress] = None
        self._send_flows: Dict[Tuple, SendFlow] = {}
        self._recv_flows: Dict[Tuple, RecvFlow] = {}
        self._msg_counter = 0
        # -- reliability state, used only under fault injection --
        self._tx_seq = 0
        #: un-ACKed eager sends: seq -> retransmit record
        self._pending_eager: Dict[Tuple, dict] = {}
        #: eager sequence numbers already delivered (dedups retransmits)
        self._seen_eager = set()
        #: rendezvous msg_ids whose RTS was already processed
        self._seen_rts = set()

    # -- lifecycle ---------------------------------------------------------

    def open(self):
        """Generator: open the device, acquire a context, map the device
        (all slow path — offloaded on McKernel)."""
        self.fd = yield from self.task.syscall("open", self.device_path)
        info = yield from self.task.syscall(
            "ioctl", self.fd, ioc.HFI1_IOCTL_ASSIGN_CTXT, None)
        ctxt_id = info["ctxt"]
        # PIO send buffers / credit window (OS-bypass window for PIO)
        yield from self.task.syscall("mmap", self.fd, 0x10_0000)
        self.addr = EndpointAddress(self.hfi.node_id, ctxt_id)
        self.hfi.context(ctxt_id).on_packet = self._rx_packet
        # McKernel+HFI pays extra per-process setup: kernel-level mappings
        # of driver internals (visible as MPI_Init time in Table 1)
        kernel = self.task.kernel
        pico = getattr(kernel, "pico", None)
        if pico is not None and pico.lookup(self.device_path) is not None:
            yield self.sim.timeout(self.params.syscall.pico_init_cost)
        return self.addr

    def close(self):
        """Generator: close the device file."""
        if self.fd is None:
            raise ReproError("endpoint not open")
        yield from self.task.syscall("close", self.fd)
        self.fd = None

    # -- send API ---------------------------------------------------------------

    def mq_isend(self, dest: EndpointAddress, tag, buffer: int, nbytes: int,
                 payload=None):
        """Generator: start a send, return the MqRequest.

        Eager (PIO) sends complete before returning; rendezvous sends
        complete when every window's SDMA transfer has finished.
        """
        if self.addr is None:
            raise ReproError("endpoint not open")
        req = MqRequest(self.sim, "send")
        span = PLANES.trace.begin_span(
            "psm.isend", track_of(self.task.kernel), cat="psm",
            args={"nbytes": nbytes}) if PLANES.trace is not None else None
        try:
            ret = yield from self._isend(dest, tag, buffer, nbytes,
                                         payload, req)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        return ret

    def _isend(self, dest: EndpointAddress, tag, buffer: int, nbytes: int,
               payload, req: MqRequest):
        """Generator: protocol selection + initiation (see mq_isend)."""
        yield self.sim.timeout(self.params.psm.mq_overhead)
        if nbytes <= self.params.nic.pio_threshold:
            seq = csum = None
            if self.hfi.injector is not None:
                seq = (self.addr, self._tx_seq)
                self._tx_seq += 1
                csum = packet_checksum("eager", ("eager", self.addr, tag),
                                       nbytes, seq, payload)
            pkt = Packet(kind="eager", src_node=self.addr.node_id,
                         dst_node=dest.node_id, dst_ctxt=dest.ctxt_id,
                         nbytes=nbytes, tag=("eager", self.addr, tag),
                         payload=payload, seq=seq, csum=csum)
            if self.hfi.injector is not None:
                # completion is deferred to the receiver's ACK; the
                # watchdog retransmits until acked or the budget is gone
                self._pending_eager[seq] = {
                    "via": "pio", "pkt": pkt, "req": req,
                    "tag": tag, "nbytes": nbytes}
            yield from self.hfi.pio_send(pkt)
            self.tracer.count("psm.eager_sends")
            if self.hfi.injector is not None:
                self.sim.spawn(self._eager_watchdog(seq))
            else:
                req.complete(self.addr, tag, nbytes)
            return req
        if nbytes <= self.params.psm.expected_threshold:
            # eager over SDMA: one writev, no TID registration; the
            # receiver copies out of library buffers
            meta = {"dst_node": dest.node_id, "dst_ctxt": dest.ctxt_id,
                    "kind": "eager", "tag": ("eager", self.addr, tag),
                    "payload": payload}
            done = None
            seq = None
            if self.hfi.injector is not None:
                seq = (self.addr, self._tx_seq)
                self._tx_seq += 1
                meta["seq"] = seq
                meta["csum"] = packet_checksum("eager", meta["tag"],
                                               nbytes, seq, payload)
                self._pending_eager[seq] = {
                    "via": "sdma", "meta": dict(meta), "buffer": buffer,
                    "req": req, "tag": tag, "nbytes": nbytes}
            else:
                done = Event(self.sim)
                meta["completion"] = done
            try:
                yield from self.task.syscall("writev", self.fd,
                                             [meta, (buffer, nbytes)])
            except DeviceTimeout:
                if self.hfi.injector is None:
                    raise
                # the submit timed out on a wedged device (engine never
                # returned to running): the watchdog below owns
                # retransmission, so swallow the typed failure here
                self.tracer.count("psm.send_timeouts")
            self.tracer.count("psm.eager_sdma_sends")
            if self.hfi.injector is not None:
                self.sim.spawn(self._eager_watchdog(seq))
            else:
                done.add_callback(
                    lambda _e: req.complete(self.addr, tag, nbytes))
            return req
        msg_id = (self.addr, self._msg_counter)
        self._msg_counter += 1
        flow = SendFlow(msg_id=msg_id, buffer=buffer, total=nbytes,
                        windows=window_count(nbytes,
                                             self.params.psm.window_size),
                        request=req)
        self._send_flows[msg_id] = flow
        rts = Rts(msg_id, self.addr, tag, nbytes, payload)
        csum = (packet_checksum("rts", None, self.params.psm.ctrl_bytes,
                                None, rts) if self.hfi.injector is not None else None)
        pkt = Packet(kind="rts", src_node=self.addr.node_id,
                     dst_node=dest.node_id, dst_ctxt=dest.ctxt_id,
                     nbytes=self.params.psm.ctrl_bytes, payload=rts,
                     csum=csum)
        yield from self.hfi.pio_send(pkt)
        self.tracer.count("psm.rndv_sends")
        if self.hfi.injector is not None:
            self.sim.spawn(self._rts_watchdog(flow, pkt))
        return req

    def mq_send(self, dest: EndpointAddress, tag, buffer: int, nbytes: int,
                payload=None):
        """Generator: blocking send."""
        req = yield from self.mq_isend(dest, tag, buffer, nbytes, payload)
        yield req.event
        return req

    # -- receive API -----------------------------------------------------------------

    def mq_irecv(self, matcher: TagMatcher,
                 buffer: Optional[Tuple[int, int]] = None) -> MqRequest:
        """Post a receive (non-blocking, no syscalls in the caller)."""
        req, msg = self.mq.post_recv(matcher, buffer)
        if msg is not None:
            if msg.rts is not None:
                self._start_recv_flow(msg.rts, req, buffer)
            else:
                self.sim.spawn(self._eager_deliver(
                    req, msg.source, msg.tag, msg.nbytes, msg.payload))
        return req

    # -- packet demux (called at wire arrival) ----------------------------------------

    def _rx_packet(self, pkt: Packet) -> None:
        rx = PLANES.trace.instant_span(
            f"psm.rx_{pkt.kind}", track_of(self.task.kernel), cat="psm",
            args={"nbytes": pkt.nbytes}, flow_from=pkt.trace) \
            if PLANES.trace is not None else None
        if self.hfi.injector is not None and pkt.csum is not None:
            if pkt.csum != packet_checksum(pkt.kind, pkt.tag, pkt.nbytes,
                                           pkt.seq, pkt.payload):
                # Bit flip in flight: drop like a failed link CRC; the
                # sender-side watchdogs retransmit.  For expected data,
                # remember the corruption so exhaustion raises the
                # corruption error, not a generic timeout.
                self.tracer.count("psm.corrupt_drops")
                if pkt.kind == "expected":
                    _, msg_id, _w = pkt.tag
                    flow = self._recv_flows.get(msg_id)
                    if flow is not None:
                        flow.corrupt_seen += 1
                return
        if pkt.kind == "eager":
            _, src, tag = pkt.tag
            if self.hfi.injector is not None and pkt.seq is not None:
                # ACK every copy (the first ACK may itself be lost), but
                # deliver each sequence number once.
                self.sim.spawn(self._send_ack(pkt, src))
                if pkt.seq in self._seen_eager:
                    self.tracer.count("psm.dup_eager")
                    return
                self._seen_eager.add(pkt.seq)
            req = self.mq.match_arrival(src, tag)
            if req is not None:
                self.sim.spawn(self._eager_deliver(
                    req, src, tag, pkt.nbytes, pkt.payload, cause=rx))
            else:
                self.mq.add_unexpected(UnexpectedMessage(
                    src, tag, pkt.nbytes, payload=pkt.payload))
                self.tracer.count("psm.unexpected")
        elif pkt.kind == "ack":
            entry = self._pending_eager.pop(pkt.payload, None)
            if entry is None:
                self.tracer.count("psm.dup_acks")
                return
            if not entry["req"].done:
                entry["req"].complete(self.addr, entry["tag"],
                                      entry["nbytes"])
        elif pkt.kind == "rts":
            rts: Rts = pkt.payload
            if self.hfi.injector is not None:
                if rts.msg_id in self._seen_rts:
                    self.tracer.count("psm.dup_rts")
                    return
                self._seen_rts.add(rts.msg_id)
            req = self.mq.match_arrival(rts.source, rts.tag)
            if req is not None:
                self._start_recv_flow(rts, req, req.buffer, cause=rx)
            else:
                self.mq.add_unexpected(UnexpectedMessage(
                    rts.source, rts.tag, rts.total, rts=rts))
                self.tracer.count("psm.unexpected")
        elif pkt.kind == "cts":
            cts: Cts = pkt.payload
            flow = self._send_flows.get(cts.msg_id)
            if flow is not None:
                flow.cts_seen += 1
            self.tx.submit(self._send_window(cts, cause=rx))
        elif pkt.kind == "expected":
            _, msg_id, widx = pkt.tag
            self._window_arrived(msg_id, widx, cause=rx)
        else:
            raise ReproError(f"unknown packet kind {pkt.kind!r}")

    # -- eager data path -----------------------------------------------------------------

    def _eager_deliver(self, req: MqRequest, src, tag, nbytes, payload,
                       cause=None):
        """Copy from library buffers to the application buffer.

        The copy is pipelined with arrival (PSM copies fragment by
        fragment), so only the rate mismatch versus the link plus one
        fragment tail is serial."""
        copy_bw = self.params.nic.eager_copy_bandwidth
        link_bw = self.params.nic.link_bandwidth
        tail = min(nbytes, 8192) / copy_bw
        lag = max(0.0, nbytes * (1.0 / copy_bw - 1.0 / link_bw))
        span = PLANES.trace.begin_span(
            "psm.eager_copy", track_of(self.task.kernel), cat="psm",
            args={"nbytes": nbytes}, flow_from=cause) \
            if PLANES.trace is not None else None
        try:
            yield self.sim.timeout(self.params.psm.mq_overhead + tail + lag)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        if PLANES.trace is not None:
            PLANES.trace.instant_span(
                "psm.msg_complete", track_of(self.task.kernel), cat="psm",
                args={"nbytes": nbytes}, flow_from=span)
        req.complete(src, tag, nbytes, payload)

    # -- reliability daemons (active only under fault injection) ---------------------------

    def _send_ack(self, pkt: Packet, src: EndpointAddress):
        """Generator: ACK one sequence-numbered eager packet."""
        nbytes = self.params.psm.ctrl_bytes
        ack = Packet(kind="ack", src_node=self.addr.node_id,
                     dst_node=src.node_id, dst_ctxt=src.ctxt_id,
                     nbytes=nbytes, payload=pkt.seq,
                     csum=packet_checksum("ack", None, nbytes, None,
                                          pkt.seq))
        yield from self.hfi.pio_send(ack)

    def _eager_watchdog(self, seq):
        """Retransmit an un-ACKed eager send with exponential backoff;
        fail the request with :class:`DeviceTimeout` when the bounded
        budget is exhausted."""
        psm = self.params.psm
        timeout = psm.retry_timeout
        for _ in range(psm.max_retries):
            yield self.sim.timeout(timeout)
            entry = self._pending_eager.get(seq)
            if entry is None:
                return
            self.tracer.count("psm.retransmits")
            if PLANES.trace is not None:
                PLANES.trace.instant_span(
                    "psm.retransmit", track_of(self.task.kernel),
                    cat="recovery", args={"kind": "eager"})
            if entry["via"] == "pio":
                yield from self.hfi.pio_send(entry["pkt"])
            else:
                try:
                    yield from self.task.syscall(
                        "writev", self.fd,
                        [dict(entry["meta"]), (entry["buffer"],
                                               entry["nbytes"])])
                except DeviceTimeout:
                    # device wedged for this attempt; keep the backoff
                    # loop alive — a later retry may land post-recovery
                    self.tracer.count("psm.retransmit_timeouts")
            timeout *= psm.retry_backoff
        entry = self._pending_eager.pop(seq, None)
        if entry is not None and not entry["req"].done:
            self.tracer.count("psm.send_failures")
            entry["req"].event.fail(DeviceTimeout(
                f"eager send {seq} unacknowledged after "
                f"{psm.max_retries} retransmits"))

    def _rts_watchdog(self, flow: SendFlow, pkt: Packet):
        """Retransmit an unanswered RTS; once any CTS arrives the
        receiver's per-window watchdogs own further recovery."""
        psm = self.params.psm
        timeout = psm.retry_timeout
        for _ in range(psm.max_retries):
            yield self.sim.timeout(timeout)
            if (flow.cts_seen or flow.finished
                    or flow.msg_id not in self._send_flows):
                return
            self.tracer.count("psm.retransmits")
            if PLANES.trace is not None:
                PLANES.trace.instant_span(
                    "psm.retransmit", track_of(self.task.kernel),
                    cat="recovery", args={"kind": "rts"})
            yield from self.hfi.pio_send(pkt)
            timeout *= psm.retry_backoff
        if (flow.cts_seen or flow.finished
                or flow.msg_id not in self._send_flows):
            return
        self._send_flows.pop(flow.msg_id, None)
        self.tracer.count("psm.send_failures")
        flow.request.event.fail(DeviceTimeout(
            f"RTS for {flow.msg_id} unanswered after "
            f"{psm.max_retries} retransmits"))

    def _cts_watchdog(self, flow: RecvFlow, w: int, pkt: Packet):
        """Re-grant a window whose data never landed (lost/corrupt CTS
        or data).  The CTS carries the same TIDs, so a duplicate data
        packet from an earlier grant places harmlessly and is deduped."""
        psm = self.params.psm
        timeout = psm.retry_timeout
        msg_id = flow.rts.msg_id
        for _ in range(psm.max_retries):
            yield self.sim.timeout(timeout)
            if (w in flow.arrived_windows
                    or msg_id not in self._recv_flows):
                return
            self.tracer.count("psm.retransmits")
            self.tracer.count("psm.cts_resends")
            if PLANES.trace is not None:
                PLANES.trace.instant_span(
                    "psm.retransmit", track_of(self.task.kernel),
                    cat="recovery", args={"kind": "cts_regrant"})
            yield from self.hfi.pio_send(pkt)
            timeout *= psm.retry_backoff
        if w in flow.arrived_windows or msg_id not in self._recv_flows:
            return
        if flow.corrupt_seen:
            exc = TransferCorrupt(
                f"window {w} of {msg_id} corrupt after "
                f"{psm.max_retries} retransmits")
        else:
            exc = DeviceTimeout(
                f"window {w} of {msg_id} never arrived after "
                f"{psm.max_retries} retransmits")
        self._fail_recv_flow(flow, exc)

    def _fail_recv_flow(self, flow: RecvFlow, exc: ReproError) -> None:
        if self._recv_flows.pop(flow.rts.msg_id, None) is None:
            return
        self.tracer.count("psm.recv_failures")
        flow.request.event.fail(exc)

    # -- rendezvous receive side -------------------------------------------------------------

    def _start_recv_flow(self, rts: Rts, req: MqRequest,
                         buffer: Optional[Tuple[int, int]],
                         cause=None) -> None:
        if buffer is None:
            raise ReproError(
                f"rendezvous message {rts.msg_id} needs a posted buffer")
        vaddr, length = buffer
        if length < rts.total:
            raise ReproError(f"receive buffer of {length}B too small for "
                             f"{rts.total}B message")
        flow = RecvFlow(rts=rts, buffer=vaddr, request=req,
                        windows=window_count(rts.total,
                                             self.params.psm.window_size))
        if PLANES.trace is not None:
            # window-registration jobs flow from the RTS arrival instant
            flow.trace_cause = cause
        self._recv_flows[rts.msg_id] = flow
        for _ in range(min(self.params.psm.prefetch_windows, flow.windows)):
            self._register_next(flow)

    def _register_next(self, flow: RecvFlow) -> None:
        if flow.next_register >= flow.windows:
            return
        w = flow.next_register
        flow.next_register += 1
        self.rx.submit(self._register_window(flow, w))

    def _register_window(self, flow: RecvFlow, w: int):
        """rx-worker job: TID_UPDATE + CTS for window ``w``.

        Transient TID_UPDATE failures are retried with backoff *inside*
        the job so the shared rx worker survives them; exhaustion fails
        the flow's request instead of raising."""
        offset, length = window_extent(flow.rts.total,
                                       self.params.psm.window_size, w)
        span = PLANES.trace.begin_span(
            "psm.tid_window", track_of(self.task.kernel), cat="psm",
            args={"window": w, "nbytes": length},
            flow_from=getattr(flow, "trace_cause", None)) \
            if PLANES.trace is not None else None
        try:
            yield self.sim.timeout(self.params.psm.rndv_window_overhead)
            psm = self.params.psm
            attempts = 0
            while True:
                try:
                    tids = yield from self.task.syscall(
                        "ioctl", self.fd, ioc.HFI1_IOCTL_TID_UPDATE,
                        {"vaddr": flow.buffer + offset, "length": length})
                    break
                except TransientDeviceError as exc:
                    attempts += 1
                    self.tracer.count("psm.tid_retries")
                    if attempts >= psm.max_retries:
                        self._fail_recv_flow(flow, DeviceTimeout(
                            f"TID_UPDATE for {flow.rts.msg_id} window {w} "
                            f"kept failing: {exc}"))
                        return
                    yield self.sim.timeout(
                        psm.retry_timeout
                        * psm.retry_backoff ** (attempts - 1))
            flow.tids_by_window[w] = tuple(tids)
            self.tracer.record("psm.tids_per_window", len(tids))
            cts = Cts(flow.rts.msg_id, w, offset, length, tuple(tids),
                      self.addr)
            csum = (packet_checksum("cts", None, self.params.psm.ctrl_bytes,
                                    None, cts) if self.hfi.injector is not None else None)
            pkt = Packet(kind="cts", src_node=self.addr.node_id,
                         dst_node=flow.rts.source.node_id,
                         dst_ctxt=flow.rts.source.ctxt_id,
                         nbytes=self.params.psm.ctrl_bytes, payload=cts,
                         csum=csum)
            yield from self.hfi.pio_send(pkt)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        if self.hfi.injector is not None:
            self.sim.spawn(self._cts_watchdog(flow, w, pkt))

    def _window_arrived(self, msg_id: Tuple, widx: int,
                        cause=None) -> None:
        flow = self._recv_flows.get(msg_id)
        if flow is None:
            # Under fault injection a retransmitted window can land after
            # its flow completed or failed; elsewhere it is a protocol bug.
            if self.hfi.injector is not None:
                self.tracer.count("psm.dup_window")
                return
            raise ReproError(f"expected data for unknown message {msg_id}")
        if self.hfi.injector is not None and widx in flow.arrived_windows:
            self.tracer.count("psm.dup_window")
            return
        flow.arrived_windows.add(widx)
        flow.arrived += 1
        tids = flow.tids_by_window.pop(widx, None)
        # TID_FREE is deferred off the critical path but still serializes
        # with upcoming registrations on the progress worker
        if tids is not None:
            self.rx.submit(self._free_tids(tids))
        self._register_next(flow)
        if flow.all_arrived():
            del self._recv_flows[msg_id]
            if PLANES.trace is not None:
                PLANES.trace.instant_span(
                    "psm.msg_complete", track_of(self.task.kernel),
                    cat="psm", args={"nbytes": flow.rts.total},
                    flow_from=cause)
            flow.request.complete(flow.rts.source, flow.rts.tag,
                                  flow.rts.total, flow.rts.payload)

    def _free_tids(self, tids):
        yield from self.task.syscall(
            "ioctl", self.fd, ioc.HFI1_IOCTL_TID_FREE, {"tids": list(tids)})

    # -- rendezvous send side ------------------------------------------------------------------

    def _send_window(self, cts: Cts, cause=None):
        """tx-worker job: SDMA writev for one granted window."""
        flow = self._send_flows.get(cts.msg_id)
        if flow is None:
            # A re-granted CTS can outlive its sender flow (the flow
            # failed on RTS exhaustion); only a bug in fault-free runs.
            if self.hfi.injector is not None:
                self.tracer.count("psm.stale_cts")
                return
            raise ReproError(f"CTS for unknown message {cts.msg_id}")
        span = PLANES.trace.begin_span(
            "psm.send_window", track_of(self.task.kernel), cat="psm",
            args={"window": cts.window, "nbytes": cts.length},
            flow_from=cause) if PLANES.trace is not None else None
        try:
            done = Event(self.sim)
            meta = {"dst_node": cts.dest.node_id,
                    "dst_ctxt": cts.dest.ctxt_id,
                    "kind": "expected", "tids": cts.tids,
                    "tag": ("win", cts.msg_id, cts.window),
                    "completion": done}
            if self.hfi.injector is not None:
                meta["csum"] = packet_checksum(
                    "expected", ("win", cts.msg_id, cts.window), cts.length,
                    None, None)
            try:
                yield from self.task.syscall(
                    "writev", self.fd,
                    [meta, (flow.buffer + cts.offset, cts.length)])
            except DeviceTimeout as exc:
                # The window submit itself timed out (device wedged past
                # the driver's bounded engine wait).  Fail the flow with
                # the typed error instead of letting it escape and kill
                # the tx progress worker.
                self.tracer.count("psm.send_window_timeouts")
                self._send_flows.pop(cts.msg_id, None)
                if not flow.request.done:
                    flow.request.event.fail(exc)
                return
            flow.submitted += 1
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        done.add_callback(
            lambda e: self._sdma_complete(flow, cts.window, e))

    def _sdma_complete(self, flow: SendFlow, window: int,
                       evt=None) -> None:
        if not flow.window_complete(window):
            return
        if flow.finished:
            return
        flow.finished = True
        # Under fault injection the flow stays registered so a receiver's
        # late re-CTS can still be answered with a fresh submission.
        if self.hfi.injector is None:
            del self._send_flows[flow.msg_id]
        if PLANES.trace is not None:
            group = getattr(evt, "_value", None)
            PLANES.trace.instant_span(
                "psm.send_complete", track_of(self.task.kernel), cat="psm",
                args={"nbytes": flow.total},
                flow_from=getattr(group, "trace_ctx", None))
        flow.request.complete(self.addr, None, flow.total)
