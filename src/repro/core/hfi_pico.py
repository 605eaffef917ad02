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

from operator import itemgetter
from typing import Dict, Optional

from ..config import PLANES
from ..errors import DriverError, FastPathUnavailable, TransientDeviceError
from ..hw.hfi import Packet, SdmaRequestGroup
from ..obs.spans import track_of
from ..linux.hfi1 import ioctls as ioc
from ..linux.hfi1.debuginfo import SDMA_STATE_S99_RUNNING
from ..linux.hfi1.driver import Hfi1Driver
from ..linux.hfi1.sdma import build_descs_from_spans, split_spans_for_tids
from .callbacks import CallbackRegistry
from .extract import ExtractedLayout, StructView, dwarf_extract_struct
from .lockclasses import declare_lock_use
from .picodriver import FastPathDecision, PicoDriver

# the fast path takes the Linux driver's submit lock (declared with its
# rank in linux/hfi1/driver.py) without owning it — exactly the
# cross-kernel sharing the lockdep hierarchy exists to police
declare_lock_use("hfi1.sdma_submit", "core/hfi_pico")

#: (struct, fields) the fast path needs — note how small a slice of the
#: driver's state this is (section 3.2: "in most cases we only need a
#: small subset of the fields")
EXTRACTION_MANIFEST = {
    "sdma_state": ["current_state", "go_s99_running", "previous_state"],
    "hfi1_filedata": ["ctxt", "pq", "tid_used", "tid_limit"],
    "user_sdma_pkt_q": ["n_reqs", "state"],
    "hfi1_devdata": ["num_sdma"],
}


class HFIPicoDriver(PicoDriver):
    """Fast-path HFI driver resident in McKernel."""

    def __init__(self, linux_driver: Hfi1Driver):
        self.linux_driver = linux_driver
        self.device_path = linux_driver.device_path
        #: the shipped binary is all we consume for layouts
        self.module = linux_driver.binary
        self.layouts: Dict[str, ExtractedLayout] = {}
        self.lwk = None
        self.hfi = None
        self.heap = None
        self.callbacks: Optional[CallbackRegistry] = None
        self.completion_addr: Optional[int] = None

    # -- attach (the porting checklist of section 3) ------------------------

    def attach(self, lwk) -> None:
        """Run the section-3 porting checklist against the LWK."""
        linux = lwk.linux
        # 3.1: address space unification is a hard prerequisite
        self.require_unified(linux.aspace, lwk.aspace)
        self.lwk = lwk
        self.hfi = lwk.node.hfi
        self.heap = lwk.node.kheap
        # 3.2: extract structure layouts from the module's DWARF
        for struct, fields in EXTRACTION_MANIFEST.items():
            layout = dwarf_extract_struct(self.module, struct, fields)
            self.require_layout_version(layout, self.linux_driver.version)
            self.layouts[struct] = layout
        # 3.3: register the completion callback in McKernel TEXT and make
        # it invokable from Linux
        if self.linux_driver.callbacks is None:
            self.linux_driver.callbacks = CallbackRegistry(
                {"linux": linux.aspace, "mckernel": lwk.aspace})
        self.callbacks = self.linux_driver.callbacks
        self.completion_addr = self.callbacks.register(
            "mckernel", self._completion)
        # 3.3: SDMA completions free LWK memory from Linux CPUs
        lwk.alloc.foreign_free_enabled = True

    # -- claim policy ----------------------------------------------------------

    def claims(self, syscall: str, args: tuple) -> FastPathDecision:
        """Claim writev and the three TID ioctls; offload the rest."""
        if syscall == "writev":
            return FastPathDecision.claim("SDMA send fast path")
        if syscall == "ioctl":
            cmd = args[1]
            if cmd in ioc.TID_IOCTLS:
                return FastPathDecision.claim(
                    "expected-receive registration fast path")
            return FastPathDecision.offload(
                f"administrative ioctl {cmd:#x} stays in Linux")
        return FastPathDecision.offload(f"{syscall} is slow path")

    # -- views over Linux driver state -------------------------------------------

    def _view(self, struct: str, addr: int,
              kernel: str = "mckernel") -> StructView:
        """A DWARF-layout view of Linux driver state; ``kernel`` is the
        context *performing* the accesses (the completion callback runs
        on a Linux CPU)."""
        self.lwk.aspace.check_access(addr, f"Linux {struct}")
        return StructView(self.layouts[struct], self.heap, addr,
                          kernel=kernel)

    def _file_views(self, task, fd: int):
        path, file = self.lwk.device_file(task, fd)
        fdata = self._view("hfi1_filedata", file.private_data)
        pq = self._view("user_sdma_pkt_q", fdata.get("pq"))
        return file, fdata, pq

    # -- fast-path writev: SDMA send ------------------------------------------------

    def fast_writev(self, task, fd: int, iovecs):
        """Generator: the LWK-local SDMA send fast path (section 3.4)."""
        if len(iovecs) < 2:
            raise DriverError("hfi1 writev needs a header iovec and at "
                              "least one data iovec")
        lwk = self.lwk
        sim = lwk.sim
        sc = lwk.params.syscall
        nic = lwk.params.nic
        meta = iovecs[0]
        file, fdata, pq = self._file_views(task, fd)

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
                    guard.record_failure(guard.engine_path(engine.index),
                                         "engine not running at fast path")
                raise FastPathUnavailable(
                    f"SDMA engine {engine.index} not running",
                    engine=engine.index)

            meta_addr, alloc_cost = lwk.alloc.kmalloc(192, task.core_id)
            yield sim.timeout(sc.writev_base_pico
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
                            tids=tuple(meta.get("tids", ())),
                            seq=meta.get("seq"), csum=meta.get("csum"))
            group = SdmaRequestGroup(
                descriptors=descs, packet=packet, owner_kernel="mckernel",
                meta_addrs=[meta_addr], callback_addr=self.completion_addr,
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
                yield sim.timeout(kfree_cost)
                if guard is not None:
                    guard.record_failure(guard.engine_path(engine.index),
                                         f"submit failed: {submit_exc}")
                raise FastPathUnavailable(
                    f"pico writev submit failed: {submit_exc}",
                    engine=engine.index) from submit_exc
            if guard is not None:
                guard.record_success(guard.engine_path(engine.index))
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
        yield lwk.sim.timeout(cost)
        ctx = group.user_ctx or {}
        pq_addr = ctx.get("pq_addr")
        if pq_addr is not None:
            pq = self._view("user_sdma_pkt_q", pq_addr, kernel="linux")
            pq.add("n_reqs", -1)
        completion = ctx.get("completion")
        if completion is not None:
            completion.succeed(group)

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
            yield self.lwk.sim.timeout(
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
            yield lwk.sim.timeout(sc.tid_ioctl_base_pico)
            raise TransientDeviceError("TID_UPDATE raced RcvArray update")
        if not task.pagetable.is_pinned(vaddr, length):
            raise DriverError(
                f"pico TID_UPDATE over unpinned range {vaddr:#x}")
        file, fdata, _pq = self._file_views(task, fd)
        spans = task.pagetable.phys_spans(vaddr, length)
        # one entry per contiguous span (up to the 2MB entry max) instead
        # of one per base page
        tid_spans = split_spans_for_tids(spans, nic.tid_max_span)
        ctxt = self.hfi.context(fdata.get("ctxt"))
        tids = self.hfi.program_tids(ctxt, tid_spans)
        yield lwk.sim.timeout(sc.tid_ioctl_base_pico
                              + len(spans) * sc.ptwalk_per_span
                              + len(tids) * nic.tid_program_cost)
        # keep the Linux driver's bookkeeping coherent (shared state)
        state = self.linux_driver.file_state_by_addr(file.private_data)
        state.tids.update(zip(tids, map(itemgetter(1), tid_spans)))
        # benign by construction: TID ioctls for one fd are issued
        # sequentially by the owning task, so the fast- and slow-path
        # writers of tid_used never interleave for a single fd
        fdata.set("tid_used", len(state.tids))  # pd-ignore[PD015.5]
        lwk.tracer.count("pico.tid_updates")
        lwk.tracer.record("pico.tids_per_update", len(tids))
        return list(tids)

    def _tid_free(self, task, fd: int, arg):
        lwk = self.lwk
        tids = list(arg["tids"])
        file, fdata, _pq = self._file_views(task, fd)
        state = self.linux_driver.file_state_by_addr(file.private_data)
        if not state.tids.keys() >= set(tids):
            bad = next(t for t in tids if t not in state.tids)
            raise DriverError(f"pico TID_FREE of unowned tid {bad}")
        self.hfi.unprogram_tids(tids)
        for tid in tids:
            del state.tids[tid]
        fdata.set("tid_used", len(state.tids))
        yield lwk.sim.timeout(
            lwk.params.syscall.tid_ioctl_base_pico
            + len(tids) * lwk.params.nic.tid_program_cost)
        return len(tids)
