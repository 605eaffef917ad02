"""The HFI1 Linux driver: file operations over the simulated HFI device.

This is the *unmodified* driver of the paper: PicoDriver never changes a
line here — it reads the structures this driver owns (through DWARF-derived
offsets) and cooperates through the same hardware rings, locks and
completion IRQs.

All driver state (``hfi1_devdata``, ``hfi1_filedata``, ``sdma_state``,
``user_sdma_pkt_q``) lives in the node's byte-backed kernel heap at
ABI-computed offsets, because the whole point of the reproduction is that
another kernel dereferences it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ...config import PLANES
from ...core.lockclasses import declare_lock_class
from ...core.structs import StructInstance
from ...errors import (BadSyscall, DeviceTimeout, DriverError,
                       TransientDeviceError)
from ...hw.hfi import DescriptorChain, Packet, RcvContext, SdmaRequestGroup
from ...obs.spans import track_of
from ...sim import Event
from ...units import PAGE_SIZE, USEC
from ..vfs import File, FileOps
from . import ioctls as ioc
from .debuginfo import (CURRENT_VERSION, SDMA_PKT_Q_ACTIVE,
                        SDMA_STATE_S10_HW_START_UP_HALT_WAIT,
                        SDMA_STATE_S99_RUNNING, build_module, struct_defs)
from .sdma import build_descs_from_pages, page_spans

# The submit lock is the innermost lock of the cross-kernel hierarchy:
# both the Linux writev slow path and the pico fast path take it last,
# with nothing ranked above it.  Declared here because this driver owns
# the lock word (PicoDriver only borrows it).
declare_lock_class(
    "hfi1.sdma_submit", rank=20, subsystem="linux/hfi1",
    attrs=("sdma_lock",),
    doc="serializes SDMA ring submission across Linux and McKernel")

#: fixed cost of context setup in open() beyond the generic open path
_CTXT_SETUP_COST = 3.2 * USEC
#: flat cost of the administrative ioctls
_ADMIN_IOCTL_COST = 0.7 * USEC
#: device (PIO/credit/rcvhdr) mmap cost
_DEVICE_MMAP_COST = 1.9 * USEC


@dataclass
class DriverFileState:
    """Driver-private per-open state (rooted at ``file->private_data``);
    the TIDs the file registered are its context's RcvArray records."""

    ctxt: RcvContext
    fdata: StructInstance
    pq: StructInstance


class Hfi1Driver(FileOps):
    """``hfi1.ko``: registered with the VFS as ``/dev/hfi1_<unit>``."""

    def __init__(self, version: str = CURRENT_VERSION, unit: int = 0):
        self.version = version
        self.unit = unit
        self.device_path = f"/dev/hfi1_{unit}"
        #: the shipped module binary — DWARF consumers extract from this
        self.binary = build_module(version)
        self._defs = struct_defs(version)
        self.kernel = None
        self.hfi = None
        self.heap = None
        self.devdata: Optional[StructInstance] = None
        self.engine_states: List[StructInstance] = []
        self._files: Dict[int, DriverFileState] = {}  # private_data -> state
        #: cross-kernel callback registry, installed by the machine builder
        #: when an LWK is present
        self.callbacks = None
        #: engines whose halt recovery is already queued/running
        self._recovering = set()
        #: submitters parked until an engine re-enters S99_RUNNING
        self._engine_waiters: Dict[int, List[Event]] = {}
        #: optional :class:`repro.guard.GuardManager` for this device
        #: (installed by the machine builder when the guard plane is
        #: enabled; ``None`` otherwise)
        self.guard = None

    # -- module load ---------------------------------------------------------

    def probe(self, kernel) -> None:
        """Module init: allocate device data, register chrdev and IRQs."""
        self.kernel = kernel
        self.hfi = kernel.node.hfi
        self.heap = kernel.node.kheap
        params = kernel.params
        self.devdata = StructInstance(self._defs["hfi1_devdata"], self.heap)
        self.devdata.set("num_sdma", params.nic.sdma_engines)
        self.devdata.set("num_rcv_contexts", 160)
        self.devdata.set("chip_rcv_array_count", params.nic.rcv_array_entries)
        self.devdata.set("base_guid", 0x0011_7501_0100_0000 + self.unit)
        for _ in range(params.nic.sdma_engines):
            state = StructInstance(self._defs["sdma_state"], self.heap)
            state.set("current_state", SDMA_STATE_S99_RUNNING)
            state.set("go_s99_running", 1)
            state.set("previous_state", SDMA_STATE_S99_RUNNING)
            self.engine_states.append(state)
        # SDMA submission lock: a spin lock in shared kernel memory, so a
        # co-kernel with a compatible implementation (and a unified address
        # space) can synchronize with us (section 3.3)
        from ...core.sync import CrossKernelSpinLock
        self.sdma_lock = CrossKernelSpinLock(kernel.sim, self.heap,
                                             name="hfi1.sdma_submit",
                                             tracer=kernel.tracer)
        kernel.vfs.register_chrdev(self.device_path, self)
        # the device-model surface (sysfs) stays entirely in Linux
        from ..device_model import Device
        self.device = Device(f"hfi1_{self.unit}", "infiniband")
        self.device.add_attr("boardversion", f"ChipABI 3.0, {self.version}")
        self.device.add_attr("hw_rev", 0x10)
        self.device.add_attr("nctxts",
                             lambda: self.devdata.get("num_rcv_contexts"))
        self.device.add_attr("serial", f"0x{self.devdata.get('base_guid'):x}")
        self.device.add_attr("tids_in_use", lambda: self.hfi.tids_in_use)
        kernel.devices.register(self.device)
        self.hfi.irq_dispatcher = self._irq
        self.hfi.error_dispatcher = self._sdma_error_irq

    def file_state(self, file: File) -> DriverFileState:
        """Driver per-open state for a file (via private_data)."""
        state = self._files.get(file.private_data)
        if state is None:
            raise DriverError(f"{self.device_path}: stale private_data "
                              f"{file.private_data!r}")
        return state

    # -- file operations ---------------------------------------------------------

    def open(self, kernel, file: File, task):
        """Generator: allocate a context + hfi1_filedata/pkt_q structs."""
        yield from kernel.sim.delay(_CTXT_SETUP_COST)
        ctxt = self.hfi.alloc_context(owner=task.name)
        fdata = StructInstance(self._defs["hfi1_filedata"], self.heap)
        pq = StructInstance(self._defs["user_sdma_pkt_q"], self.heap)
        fdata.set("dd", self.devdata.addr)
        fdata.set("ctxt", ctxt.ctxt_id)
        fdata.set("pq", pq.addr)
        fdata.set("tid_limit", kernel.params.nic.rcv_array_entries)
        pq.set("ctxt", ctxt.ctxt_id)
        pq.set("state", SDMA_PKT_Q_ACTIVE)
        pq.set("n_max_reqs", kernel.params.nic.sdma_ring_size)
        pq.set("dd", self.devdata.addr)
        file.private_data = fdata.addr
        self._files[fdata.addr] = DriverFileState(ctxt, fdata, pq)

    def release(self, kernel, file: File, task):
        """Generator: free the context, TIDs and driver structs."""
        state = self._files.pop(file.private_data, None)
        if state is None:
            return
        yield from kernel.sim.delay(_CTXT_SETUP_COST / 2)
        if state.ctxt.tids:
            # every TID the file still holds, in one RcvArray call
            self.hfi.unprogram_tids(state.ctxt, list(state.ctxt.tids))
        self.hfi.free_context(state.ctxt)
        state.fdata.free()
        state.pq.free()

    # -- SDMA send (the fast-path writev of section 2.2.2) ----------------------

    def writev(self, kernel, file: File, task, iovecs):
        """``writev(fd, iovecs)``: iovec 0 is the request header, the rest
        describe user buffers to transfer via SDMA."""
        if len(iovecs) < 2:
            raise BadSyscall("hfi1 writev needs a header iovec and at "
                             "least one data iovec")
        meta = iovecs[0]
        state = self.file_state(file)
        sc = kernel.params.syscall
        mem = kernel.params.mem

        cost = sc.writev_base
        chains: List[DescriptorChain] = []
        total = 0
        for vaddr, length in iovecs[1:]:
            iov_pages, gup_cost = kernel.mm.get_user_pages(task, vaddr, length)
            cost += gup_cost
            total += length
            if length:
                # each iovec is chopped from its own pages and offset; the
                # Linux driver submits at most PAGE_SIZE per request
                # (sec. 3.4)
                chains.append(build_descs_from_pages(
                    iov_pages, vaddr % PAGE_SIZE, length,
                    kernel.params.nic.linux_max_request))
        if not chains:
            raise DriverError(f"bad SDMA length {total}")
        descs = DescriptorChain.concat(chains)
        cost += len(descs) * sc.desc_build
        meta_addr = self.heap.kmalloc(192)
        cost += mem.kmalloc_cost
        yield from kernel.sim.delay(cost)

        state.pq.add("n_reqs", 1)
        packet = Packet(kind=meta.get("kind", "eager"),
                        src_node=self.hfi.node_id,
                        dst_node=meta["dst_node"], dst_ctxt=meta["dst_ctxt"],
                        nbytes=total, tag=meta.get("tag"),
                        payload=meta.get("payload"),
                        tids=meta.get("tids", ()),
                        seq=meta.get("seq"), csum=meta.get("csum"))
        completion = meta.get("completion")
        pq_struct = state.pq

        def complete(group: SdmaRequestGroup):
            # runs in IRQ context on a Linux CPU; returns a generator so
            # the cleanup cost is charged there
            def cleanup():
                for addr in group.meta_addrs:
                    self.heap.kfree(addr)
                yield from kernel.sim.delay(mem.kfree_cost * len(group.meta_addrs))
                pq_struct.add("n_reqs", -1)
                if completion is not None:
                    # what PSM reads; the group holds this closure
                    completion.succeed(group.trace_ctx)
            return cleanup()

        group = SdmaRequestGroup(descriptors=descs, packet=packet,
                                 on_complete=complete,
                                 meta_addrs=[meta_addr])
        span = PLANES.trace.begin_span(
            "hfi1.writev", track_of(self), cat="driver",
            args={"nbytes": total, "descs": len(descs)}) \
            if PLANES.trace is not None else None
        if PLANES.trace is not None:
            group.trace_ctx = span
        try:
            if self.guard is not None:
                # suspended device: park on the queued-IO list; resume()
                # replays us in arrival order
                yield from self.guard.park_if_suspended()
            engine = self.hfi.pick_engine()
            yield from self._await_engine_running(engine)
            yield from self.sdma_lock.acquire("linux", kernel.aspace)
            try:
                yield from engine.submit(group)
            finally:
                self.sdma_lock.release("linux")
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        return total

    # -- ioctl surface -------------------------------------------------------------

    def ioctl(self, kernel, file: File, task, cmd, arg):
        """Generator: dispatch the driver's 13 ioctl commands."""
        state = self.file_state(file)
        if cmd == ioc.HFI1_IOCTL_TID_UPDATE:
            return (yield from self._tid_update(kernel, state, task, arg))
        if cmd == ioc.HFI1_IOCTL_TID_FREE:
            return (yield from self._tid_free(kernel, state, arg))
        if cmd == ioc.HFI1_IOCTL_TID_INVAL_READ:
            yield from kernel.sim.delay(_ADMIN_IOCTL_COST)
            idx = state.fdata.get("invalid_tid_idx")
            state.fdata.set("invalid_tid_idx", 0)
            return list(range(idx))
        if cmd == ioc.HFI1_IOCTL_ASSIGN_CTXT:
            yield from kernel.sim.delay(_ADMIN_IOCTL_COST)
            return {"ctxt": state.ctxt.ctxt_id, "subctxt": 0}
        if cmd == ioc.HFI1_IOCTL_CTXT_INFO:
            yield from kernel.sim.delay(_ADMIN_IOCTL_COST)
            return {"ctxt": state.ctxt.ctxt_id,
                    "rcvtids": state.fdata.get("tid_limit"),
                    "credits": 64}
        if cmd == ioc.HFI1_IOCTL_USER_INFO:
            yield from kernel.sim.delay(_ADMIN_IOCTL_COST)
            return {"hfi1_version": self.version,
                    "num_sdma": self.devdata.get("num_sdma")}
        if cmd == ioc.HFI1_IOCTL_GET_VERS:
            yield from kernel.sim.delay(_ADMIN_IOCTL_COST)
            return 6  # user interface version
        if cmd in (ioc.HFI1_IOCTL_CREDIT_UPD, ioc.HFI1_IOCTL_RECV_CTRL,
                   ioc.HFI1_IOCTL_POLL_TYPE, ioc.HFI1_IOCTL_ACK_EVENT,
                   ioc.HFI1_IOCTL_SET_PKEY, ioc.HFI1_IOCTL_CTXT_RESET):
            yield from kernel.sim.delay(_ADMIN_IOCTL_COST)
            return 0
        raise BadSyscall(f"hfi1: unknown ioctl {cmd:#x}")

    def _tid_update(self, kernel, state: DriverFileState, task, arg):
        """Register expected-receive buffers: pin pages, program RcvArray
        entries, return the TIDs as the ``range`` the RcvArray handed out
        (section 2.2.2)."""
        vaddr, length = arg["vaddr"], arg["length"]
        if length <= 0:
            raise DriverError(f"TID_UPDATE of bad length {length}")
        sc = kernel.params.syscall
        nic = kernel.params.nic
        inj = self.hfi.injector
        if inj is not None and inj.fires("tid.transient"):
            # The programming raced a receive-array update: the real
            # driver returns -EAGAIN after burning the entry-path cost.
            yield from kernel.sim.delay(sc.tid_ioctl_base)
            raise TransientDeviceError("TID_UPDATE raced RcvArray update")
        pages, gup_cost = kernel.mm.get_user_pages(task, vaddr, length)
        # one RcvArray entry per base page: the unmodified driver derives
        # spans from the page list, so contiguity is invisible to it (the
        # chain's runs are the first, middle and last page)
        tids = self.hfi.program_tids(
            state.ctxt, page_spans(pages, vaddr % PAGE_SIZE, length))
        cost = (sc.tid_ioctl_base + gup_cost
                + len(tids) * nic.tid_program_cost)
        yield from kernel.sim.delay(cost)
        state.fdata.set("tid_used", len(state.ctxt.tids))
        return tids

    def _tid_free(self, kernel, state: DriverFileState, arg):
        """Invalidate registered TIDs; the ``range`` of one TID_UPDATE is
        freed in one step, any other sequence TID by TID."""
        tids = arg["tids"]
        bad = state.ctxt.tids.first_missing(tids)
        if bad is not None:
            raise DriverError(f"TID_FREE of unowned tid {bad}")
        self.hfi.unprogram_tids(state.ctxt, tids)
        state.fdata.set("tid_used", len(state.ctxt.tids))
        yield from kernel.sim.delay(
            kernel.params.syscall.tid_ioctl_base
            + len(tids) * kernel.params.nic.tid_program_cost)
        return len(tids)

    # -- mmap / poll -------------------------------------------------------------------

    def mmap(self, kernel, file: File, task, length):
        """Map device resources (PIO credit/send buffers, rcvhdrq) into
        user space — how PSM gets its OS-bypass window."""
        yield from kernel.sim.delay(_DEVICE_MMAP_COST)
        state = self.file_state(file)
        return 0x7FFF_0000_0000 + state.ctxt.ctxt_id * 0x10_0000

    def poll(self, kernel, file: File, task):
        """Report receive backlog (POLLIN count)."""
        state = self.file_state(file)
        return len(state.ctxt.eager_backlog)
        yield  # pragma: no cover

    # -- SDMA halt recovery ------------------------------------------------------------

    def _sdma_error_irq(self, engine, reason: str) -> None:
        """SDMA error IRQ top half: publish "not running" into the shared
        engine state *synchronously* (so any fast path consulting the
        struct view backs off immediately), then queue the bottom-half
        drain/restart on a Linux CPU."""
        if engine.index in self._recovering:
            return
        self._recovering.add(engine.index)
        if self.guard is not None:
            # halt events feed the per-engine breaker exactly once per
            # recovery cycle (the dedup above keeps retriggered IRQs out)
            self.guard.record_failure(self.guard.path_name(engine.index),
                                      reason)
        # racy read by design: the fast path polls go_s99_running
        # lock-free and tolerates staleness by bailing to the slow
        # path (the hfi1 __sdma_running idiom)
        self.engine_states[engine.index].set("go_s99_running", 0)  # pd-ignore[PD015.5]
        self.hfi.tracer.count("hfi.sdma_recoveries")
        self.kernel.interrupts.deliver(self._sdma_recover, engine, reason)

    def _sdma_recover(self, engine, reason: str):
        """Bottom half (generator on a Linux CPU): walk the engine through
        the halt-wait state, drain/reinit, and return it to S99_RUNNING —
        the hfi1 ``sdma_state`` machine collapsed to its observable
        states."""
        state = self.engine_states[engine.index]
        state.set("previous_state", state.get("current_state"))
        # racy read by design: see go_s99_running above — the fast
        # path's state probe is advisory; any stale value only sends
        # the request down the always-correct slow path
        state.set("current_state", SDMA_STATE_S10_HW_START_UP_HALT_WAIT)  # pd-ignore[PD015.5]
        state.set("go_s99_running", 0)
        yield from self.kernel.sim.delay(self.kernel.params.nic.sdma_restart_cost)
        state.set("previous_state", SDMA_STATE_S10_HW_START_UP_HALT_WAIT)
        state.set("current_state", SDMA_STATE_S99_RUNNING)
        state.set("go_s99_running", 1)
        engine.restart()
        self._recovering.discard(engine.index)
        for waiter in self._engine_waiters.pop(engine.index, []):
            # a waiter may already have fired its submit-side deadline
            if not waiter.triggered:
                waiter.succeed()

    def _await_engine_running(self, engine):
        # Generator: the slow path blocks (it can afford to) until the
        # engine's published state is S99_RUNNING again.  If the engine
        # halted without an error IRQ having fired yet, kick recovery
        # ourselves — this is the driver's submit-side halt detection.
        # The wait is bounded by sdma_wait_timeout: an engine that never
        # returns to S99_RUNNING (recovery wedged, hardware dead) must
        # surface a typed DeviceTimeout instead of hanging the submitter
        # forever.
        sim = self.kernel.sim
        state = self.engine_states[engine.index]
        deadline = sim.now + self.kernel.params.nic.sdma_wait_timeout
        while (state.get("current_state") != SDMA_STATE_S99_RUNNING
                or state.get("go_s99_running") != 1):
            if sim.now >= deadline:
                self.hfi.tracer.count("hfi.sdma_wait_timeouts")
                raise DeviceTimeout(
                    f"SDMA engine {engine.index} did not return to "
                    f"S99_RUNNING within "
                    f"{self.kernel.params.nic.sdma_wait_timeout * 1e6:.0f}us")
            self._sdma_error_irq(engine, "halt detected at submit")
            waiter = Event(sim)
            self._engine_waiters.setdefault(engine.index, []).append(waiter)
            # wake at the deadline even if recovery never completes
            sim.timeout(deadline - sim.now).add_callback(
                lambda _evt, w=waiter: None if w.triggered else w.succeed())
            yield waiter

    # -- interrupt handling ----------------------------------------------------------------

    def _irq(self, group: SdmaRequestGroup) -> None:
        """HFI IRQ dispatcher: route to a Linux CPU via the interrupt
        controller, then run the completion callback there."""
        self.kernel.interrupts.deliver(self._sdma_complete, group)

    def _sdma_complete(self, group: SdmaRequestGroup):
        """Runs on a Linux OS CPU in IRQ context."""
        if PLANES.trace is not None:
            # flows from the submitting writev span; completion waiters
            # (PSM send-side) flow from this instant in turn
            group.trace_ctx = PLANES.trace.instant_span(
                "hfi1.irq", getattr(self, "trace_irq_track", "irq"),
                cat="irq", args={"nbytes": group.total_bytes},
                flow_from=group.trace_ctx)
        if group.callback_addr is not None:
            if self.callbacks is None:
                raise DriverError("completion carries a callback address "
                                  "but no callback registry is installed")
            result = self.callbacks.invoke("linux", group.callback_addr, group)
        elif group.on_complete is not None:
            result = group.on_complete(group)
        else:
            result = None
        if result is not None and hasattr(result, "send"):
            return result
        return None
