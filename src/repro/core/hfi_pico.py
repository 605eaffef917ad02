"""The Intel OmniPath HFI PicoDriver (paper sections 3, 3.4).

The fast path ported to McKernel:

* ``writev`` — SDMA send.  Instead of ``get_user_pages()`` the driver walks
  the LWK's *pinned* page tables and coalesces physically contiguous spans
  into SDMA requests up to the hardware maximum of 10KB (the Linux driver
  stops at PAGE_SIZE).
* the three expected-receive ``ioctl`` commands — ``TID_UPDATE``,
  ``TID_FREE``, ``TID_INVAL_READ``.  Large pages collapse many RcvArray
  entries into few.

Everything else the HFI1 driver implements — ``open``, ``mmap``, ``poll``,
the ten administrative ioctls — remains on the offloaded slow path through
the *unmodified* Linux driver.

Cooperation with the Linux driver is done the way the paper does it:

* structure layouts come from DWARF extraction of the loaded module binary
  (never from the driver's headers);
* driver state is read/written through those offsets in shared kernel
  memory, legal only because the address spaces are unified;
* submission is serialized by the driver's own spin lock (compatible
  implementations, shared lock word);
* the completion callback registered with each transfer lives in McKernel
  TEXT, is invoked by Linux from IRQ context, and frees the LWK-allocated
  metadata via the foreign-CPU kfree extension.
"""

from __future__ import annotations

from typing import Optional

from ..config import PLANES
from ..errors import (BadSyscall, DriverError, FastPathUnavailable,
                      TransientDeviceError)
from ..hw.hfi import Packet, SdmaRequestGroup
from ..obs.spans import track_of
from ..linux.hfi1 import ioctls as ioc
from ..linux.hfi1.debuginfo import SDMA_STATE_S99_RUNNING
from ..linux.hfi1.sdma import build_descs_from_spans, split_spans_for_tids
from .extract import StructView
from .lockclasses import declare_lock_use
from .picodriver import PicoDriver

# the fast path takes the Linux driver's submit lock (declared with its
# rank in linux/hfi1/driver.py) without owning it — exactly the
# cross-kernel sharing the lockdep hierarchy exists to police
declare_lock_use("hfi1.sdma_submit", "core/hfi_pico")


class HFIPicoDriver(PicoDriver):
    """Fast-path HFI driver resident in McKernel."""

    #: (struct, fields) the fast path needs — note how small a slice of
    #: the driver's state this is (section 3.2: "in most cases we only
    #: need a small subset of the fields")
    EXTRACTION_MANIFEST = {
        "sdma_state": ["current_state", "go_s99_running", "previous_state"],
        "hfi1_filedata": ["ctxt", "pq", "tid_used", "tid_limit"],
        "user_sdma_pkt_q": ["n_reqs", "state"],
        "hfi1_devdata": ["num_sdma"],
    }
    #: writev and the three TID ioctls; everything else is offloaded
    CLAIMS = {"writev": None, "ioctl": ioc.TID_IOCTLS}

    def attach(self, lwk) -> None:
        """The chassis checklist, then the device handle."""
        super().attach(lwk)
        self.hfi = lwk.node.hfi

    def _fdata(self, task, fd: int) -> StructView:
        """The open file's ``hfi1_filedata`` (rooted at private_data)."""
        _path, file = self.lwk.device_file(task, fd)
        return self._view("hfi1_filedata", file.private_data)

    # -- fast-path writev: SDMA send ------------------------------------------------

    def fast_writev(self, task, fd: int, iovecs):
        """Generator: the LWK-local SDMA send fast path (section 3.4)."""
        if len(iovecs) < 2:
            raise BadSyscall("hfi1 writev needs a header iovec and at "
                             "least one data iovec")
        lwk = self.lwk
        sim = lwk.sim
        sc = lwk.params.syscall
        nic = lwk.params.nic
        meta = iovecs[0]
        fdata = self._fdata(task, fd)
        pq = self._view("user_sdma_pkt_q", fdata.get("pq"))

        spans = []
        total = 0
        for vaddr, length in iovecs[1:]:
            # McKernel ANONYMOUS memory is pinned by construction; no page
            # references are taken (section 3.4)
            if not task.pagetable.is_pinned(vaddr, length):
                raise DriverError(
                    f"pico writev over unpinned range {vaddr:#x}+{length:#x}")
            spans.extend(task.pagetable.phys_spans(vaddr, length))
            total += length
        if not spans:
            # the caller's malformed call, refused as the slow path
            # refuses it, before any engine is picked and charged
            raise DriverError(f"bad SDMA length {total}")
        # coalesce up to the hardware max (10KB), crossing page boundaries
        descs = build_descs_from_spans(spans, nic.sdma_max_request)

        span = PLANES.trace.begin_span(
            "pico.writev", track_of(self), cat="fastpath",
            args={"nbytes": total, "descs": len(descs)}) \
            if PLANES.trace is not None else None
        guard = self.linux_driver.guard
        try:
            if guard is not None:
                # suspended device: park on the queued-IO list; resume()
                # replays us in arrival order
                yield from guard.park_if_suspended()
            # with the guard installed, pick over healthy engines only
            # (a DOWN engine is routed around at dispatch time; PROBING
            # admits one probe)
            engine = (guard.pick_healthy_engine(self.hfi)
                      if guard is not None else self.hfi.pick_engine())
            sstate = self._view(
                "sdma_state",
                self.linux_driver.engine_states[engine.index].addr)
            if (sstate.get("go_s99_running") != 1
                    or sstate.get("current_state") != SDMA_STATE_S99_RUNNING):
                # The fast path cannot afford the drain/restart wait and
                # has no business driving recovery; defer to the Linux
                # slow path, which blocks until the engine is healthy
                # (section 3: the slow path handles everything the fast
                # path does not).
                lwk.tracer.count("pico.engine_not_running")
                if guard is not None:
                    guard.record_failure(guard.path_name(engine.index),
                                         "engine not running at fast path")
                raise FastPathUnavailable(
                    f"SDMA engine {engine.index} not running",
                    engine=engine.index)

            meta_addr, alloc_cost = lwk.alloc.kmalloc(192, task.core_id)
            yield from sim.delay(sc.writev_base_pico
                                 + len(spans) * sc.ptwalk_per_span
                                 + len(descs) * sc.desc_build
                                 + alloc_cost)
            # atomic_t-style ring refcount: the Linux-side completion IRQ
            # decrements this concurrently, so a plain read-modify-write
            # races
            pq.add("n_reqs", 1)

            packet = Packet(kind=meta.get("kind", "eager"),
                            src_node=self.hfi.node_id,
                            dst_node=meta["dst_node"],
                            dst_ctxt=meta["dst_ctxt"],
                            nbytes=total, tag=meta.get("tag"),
                            payload=meta.get("payload"),
                            tids=meta.get("tids", ()),
                            seq=meta.get("seq"), csum=meta.get("csum"))
            group = SdmaRequestGroup(
                descriptors=descs, packet=packet, meta_addrs=[meta_addr],
                callback_addr=self.completion_addr,
                user_ctx={"completion": meta.get("completion"),
                          "pq_addr": fdata.get("pq")})
            if PLANES.trace is not None:
                group.trace_ctx = span
            yield from self.linux_driver.sdma_lock.acquire("mckernel",
                                                           lwk.aspace)
            submit_exc: Optional[DriverError] = None
            try:
                yield from engine.submit(group)
            except DriverError as exc:
                # A rejected submit fires no completion; record it and
                # fall through — the undo bookkeeping includes a timed
                # kfree, which must not run while Linux spins on the
                # submit lock.
                submit_exc = exc
            finally:
                self.linux_driver.sdma_lock.release("mckernel")
            if submit_exc is not None:
                # Undo our bookkeeping and let the slow path redo the call.
                pq.add("n_reqs", -1)
                kfree_cost = lwk.alloc.kfree(meta_addr, task.core_id)
                yield from sim.delay(kfree_cost)
                if guard is not None:
                    guard.record_failure(guard.path_name(engine.index),
                                         f"submit failed: {submit_exc}")
                raise FastPathUnavailable(
                    f"pico writev submit failed: {submit_exc}",
                    engine=engine.index) from submit_exc
            if guard is not None:
                guard.record_success(guard.path_name(engine.index))
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        lwk.tracer.count("pico.sdma_sends")
        lwk.tracer.record("pico.sdma_descs_per_send", len(descs))
        return total

    def _completion(self, group: SdmaRequestGroup):
        """Completion callback — lives in McKernel TEXT, *runs on a Linux
        CPU* in IRQ context (generator: its cost is charged there)."""
        lwk = self.lwk
        linux_core = lwk.node.cpus.owned_by("linux")[0].core_id
        cost = 0.0
        for addr in group.meta_addrs:
            # McKernel kfree from a Linux CPU: the foreign-free extension
            cost += lwk.alloc.kfree(addr, linux_core)
        yield from lwk.sim.delay(cost)
        ctx = group.user_ctx or {}
        pq_addr = ctx.get("pq_addr")
        if pq_addr is not None:
            pq = self._view("user_sdma_pkt_q", pq_addr, kernel="linux")
            pq.add("n_reqs", -1)
        completion = ctx.get("completion")
        if completion is not None:
            # as on the slow path; the group holds this event
            completion.succeed(group.trace_ctx)

    # -- fast-path ioctl: expected-receive TIDs ----------------------------------------

    def fast_ioctl(self, task, fd: int, cmd: int, arg):
        """Generator: the LWK-local expected-receive TID fast paths."""
        if cmd == ioc.HFI1_IOCTL_TID_UPDATE:
            span = PLANES.trace.begin_span(
                "pico.tid_update", track_of(self), cat="fastpath") \
                if PLANES.trace is not None else None
            try:
                return (yield from self._tid_update(task, fd, arg))
            finally:
                if PLANES.trace is not None and span is not None:
                    PLANES.trace.end_span(span)
        if cmd == ioc.HFI1_IOCTL_TID_FREE:
            span = PLANES.trace.begin_span(
                "pico.tid_free", track_of(self), cat="fastpath") \
                if PLANES.trace is not None else None
            try:
                return (yield from self._tid_free(task, fd, arg))
            finally:
                if PLANES.trace is not None and span is not None:
                    PLANES.trace.end_span(span)
        if cmd == ioc.HFI1_IOCTL_TID_INVAL_READ:
            yield from self.lwk.sim.delay(
                self.lwk.params.syscall.tid_ioctl_base_pico)
            return []
        raise DriverError(f"pico ioctl does not claim {cmd:#x}")

    def _tid_update(self, task, fd: int, arg):
        lwk = self.lwk
        sc = lwk.params.syscall
        nic = lwk.params.nic
        vaddr, length = arg["vaddr"], arg["length"]
        if length <= 0:
            raise DriverError(f"pico TID_UPDATE of bad length {length}")
        inj = self.hfi.injector
        if inj is not None and inj.fires("tid.transient"):
            # Same retryable RcvArray race the Linux driver can hit; the
            # fast path surfaces it identically so PSM's retry loop is
            # OS-agnostic.
            yield from lwk.sim.delay(sc.tid_ioctl_base_pico)
            raise TransientDeviceError("TID_UPDATE raced RcvArray update")
        if not task.pagetable.is_pinned(vaddr, length):
            raise DriverError(
                f"pico TID_UPDATE over unpinned range {vaddr:#x}")
        fdata = self._fdata(task, fd)
        spans = task.pagetable.phys_spans(vaddr, length)
        # one entry per contiguous span (up to the 2MB entry max) instead
        # of one per base page
        tid_spans = split_spans_for_tids(spans, nic.tid_max_span)
        ctxt = self.hfi.context(fdata.get("ctxt"))
        tids = self.hfi.program_tids(ctxt, tid_spans)
        yield from lwk.sim.delay(sc.tid_ioctl_base_pico
                                 + len(spans) * sc.ptwalk_per_span
                                 + len(tids) * nic.tid_program_cost)
        # benign by construction: TID ioctls for one fd are issued
        # sequentially by the owning task, so the fast- and slow-path
        # writers of tid_used never interleave for a single fd
        fdata.set("tid_used", len(ctxt.tids))  # pd-ignore[PD015.5]
        lwk.tracer.count("pico.tid_updates")
        lwk.tracer.record("pico.tids_per_update", len(tids))
        return tids

    def _tid_free(self, task, fd: int, arg):
        lwk = self.lwk
        tids = arg["tids"]
        fdata = self._fdata(task, fd)
        # the context's RcvArray records are the one record of what it owns
        ctxt = self.hfi.context(fdata.get("ctxt"))
        bad = ctxt.tids.first_missing(tids)
        if bad is not None:
            raise DriverError(f"pico TID_FREE of unowned tid {bad}")
        self.hfi.unprogram_tids(ctxt, tids)
        fdata.set("tid_used", len(ctxt.tids))
        yield from lwk.sim.delay(
            lwk.params.syscall.tid_ioctl_base_pico
            + len(tids) * lwk.params.nic.tid_program_cost)
        return len(tids)


#: the manifest, under the name the porting walkthrough imports
EXTRACTION_MANIFEST = HFIPicoDriver.EXTRACTION_MANIFEST
