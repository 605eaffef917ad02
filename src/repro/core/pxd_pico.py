"""The pxd block-device PicoDriver (px-fuse fast path, paper section 3).

The replicated-write fast path ported to McKernel:

* ``writev`` — the write is cloned to every in-service replica straight
  from the LWK: the replica set comes from a DWARF-layout read of the
  Linux driver's ``pxd_fastpath_extension.inservice_mask`` in shared
  kernel memory, the per-IO ``pxd_io_tracker`` is allocated on the LWK
  heap, and submission is serialized by the driver's own cross-kernel
  submit lock.
* the ``PXD_IOCTL_READ`` data ioctl — served replica-direct with the
  same retry-next policy as the Linux driver.

Everything else — admin ioctls, eviction, probing, resync — stays on
the offloaded slow path through the *unmodified* Linux driver; the fast
path only observes its decisions (the in-service mask, the suspend
bit).  Completion IRQs always run on Linux CPUs, so the eviction policy
has a single home regardless of which kernel submitted the write.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import PLANES
from ..errors import BadSyscall, FastPathUnavailable, MediaError
from ..hw.blockdev import BlockIo
from ..linux.pxd import ioctls as ioc
from ..linux.pxd.driver import PxdDriver, PxdIoHead
from ..obs.spans import track_of
from ..sim import Event
from .callbacks import CallbackRegistry
from .extract import ExtractedLayout, StructView, dwarf_extract_struct
from .lockclasses import declare_lock_use
from .picodriver import FastPathDecision, PicoDriver

# the fast path takes the Linux driver's submit lock (declared with its
# rank in linux/pxd/driver.py) without owning it
declare_lock_use("pxd.submit", "core/pxd_pico")

#: (struct, fields) the fast path needs (section 3.2)
EXTRACTION_MANIFEST = {
    "pxd_device": ["size", "qdepth", "nfd"],
    "pxd_fastpath_extension": ["nfd", "inservice_mask", "suspend",
                               "wr_seq", "congested"],
    "pxd_io_tracker": ["orig_sector", "nsectors", "active", "fails"],
}


class PxdPicoDriver(PicoDriver):
    """Fast-path pxd driver resident in McKernel."""

    def __init__(self, linux_driver: PxdDriver):
        self.linux_driver = linux_driver
        self.device_path = linux_driver.device_path
        #: the shipped binary is all we consume for layouts
        self.module = linux_driver.binary
        self.layouts: Dict[str, ExtractedLayout] = {}
        self.lwk = None
        self.blockdev = None
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
        self.blockdev = lwk.node.blockdev
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
        # 3.3: block completions free LWK memory from Linux CPUs
        lwk.alloc.foreign_free_enabled = True

    # -- claim policy -------------------------------------------------------

    def claims(self, syscall: str, args: tuple) -> FastPathDecision:
        """Claim writev and the READ data ioctl; offload the rest."""
        if syscall == "writev":
            return FastPathDecision.claim("replicated write fast path")
        if syscall == "ioctl":
            cmd = args[1]
            if cmd in ioc.DATA_IOCTLS:
                return FastPathDecision.claim("replica-direct read fast path")
            return FastPathDecision.offload(
                f"administrative ioctl {cmd:#x} stays in Linux")
        return FastPathDecision.offload(f"{syscall} is slow path")

    # -- views over Linux driver state --------------------------------------

    def _view(self, struct: str, addr: int,
              kernel: str = "mckernel") -> StructView:
        """A DWARF-layout view of Linux driver state; ``kernel`` is the
        context *performing* the accesses."""
        self.lwk.aspace.check_access(addr, f"Linux {struct}")
        return StructView(self.layouts[struct], self.heap, addr,
                          kernel=kernel)

    def _fpext(self, task, fd: int):
        _path, file = self.lwk.device_file(task, fd)
        return self._view("pxd_fastpath_extension", file.private_data)

    def _targets(self, fpext: StructView) -> "tuple[int, ...]":
        """The in-service replica set, decoded from the shared-memory
        mask the Linux driver maintains."""
        mask = fpext.get("inservice_mask", atomic=True)
        return tuple(i for i in range(fpext.get("nfd")) if (mask >> i) & 1)

    def _check_range(self, sector: int, nsectors: int) -> None:
        data_sectors = self.blockdev.params.sectors - 1  # scratch reserved
        if sector < 0 or nsectors <= 0 or sector + nsectors > data_sectors:
            raise BadSyscall(
                f"pico pxd: sector range [{sector}, {sector + nsectors}) "
                f"outside data region [0, {data_sectors})")

    # -- fast-path writev: replicated write ---------------------------------

    def fast_writev(self, task, fd: int, iovecs):
        """Generator: the LWK-local replicated write fast path."""
        if len(iovecs) < 2:
            raise BadSyscall("pxd writev needs a header iovec and at "
                             "least one data iovec")
        lwk = self.lwk
        sim = lwk.sim
        sc = lwk.params.syscall
        blk = self.blockdev.params
        meta = iovecs[0]
        payload: bytes = meta["payload"]
        sector: int = meta["sector"]
        if len(payload) % blk.sector_size:
            raise BadSyscall(f"pxd write of {len(payload)}B is not "
                             f"sector-aligned ({blk.sector_size}B sectors)")
        nsectors = len(payload) // blk.sector_size
        self._check_range(sector, nsectors)
        fpext = self._fpext(task, fd)
        if fpext.get("suspend", atomic=True) != 0:
            # the device is being quiesced; the slow path parks and
            # replays, the fast path simply defers to it
            lwk.tracer.count("pico.pxd_suspended")
            raise FastPathUnavailable("pxd device suspended")
        targets = self._targets(fpext)
        if not targets:
            # no in-service replica: the slow path owns the typed refusal
            lwk.tracer.count("pico.pxd_no_replicas")
            raise FastPathUnavailable("pxd has no in-service replicas")

        spans = []
        for vaddr, length in iovecs[1:]:
            # McKernel ANONYMOUS memory is pinned by construction
            if not task.pagetable.is_pinned(vaddr, length):
                raise BadSyscall(
                    f"pico writev over unpinned range {vaddr:#x}+{length:#x}")
            spans.extend(task.pagetable.phys_spans(vaddr, length))

        # per-IO tracker on the LWK heap; the completion IRQ updates it
        # from Linux CPUs through the same DWARF layout
        trk_layout = self.layouts["pxd_io_tracker"]
        trk_addr, alloc_cost = lwk.alloc.kmalloc(trk_layout.byte_size,
                                                 task.core_id)
        tracker = StructView(trk_layout, self.heap, trk_addr,
                             kernel="mckernel")
        # benign by construction: io trackers are per-request
        # allocations; the fast and slow paths never share one, so
        # the cross-kernel writes below target distinct objects
        tracker.set("orig_sector", sector)  # pd-ignore[PD015.5]
        tracker.set("nsectors", nsectors)  # pd-ignore[PD015.5]
        tracker.set("active", len(targets), atomic=True)
        tracker.set("fails", 0, atomic=True)
        # atomic cross-kernel increment of the driver's write sequence
        fpext.add("wr_seq", 1)
        completion_tracker = StructView(trk_layout, self.heap, trk_addr,
                                        kernel="linux")
        head = PxdIoHead(sector=sector, nsectors=nsectors, payload=payload,
                         targets=targets, tracker_add=completion_tracker.add,
                         remaining=len(targets),
                         completion=meta.get("completion"),
                         callback_addr=self.completion_addr,
                         meta_addrs=[trk_addr], owner_kernel="mckernel")
        linux_driver = self.linux_driver
        # registered before any yield: the slow path's probe machinery
        # must see fast-path writes in its drain checks too
        linux_driver._inflight.add(head)
        span = PLANES.trace.begin_span(
            "pico.pxd_writev", track_of(self), cat="fastpath",
            args={"sector": sector, "nsectors": nsectors,
                  "replicas": len(targets)}) if PLANES.trace is not None else None
        if PLANES.trace is not None:
            head.trace_ctx = span
        try:
            yield sim.timeout(blk.submit_base_pico
                              + len(spans) * sc.ptwalk_per_span
                              + alloc_cost)
            guard = linux_driver.guard
            if guard is not None:
                yield from guard.park_if_suspended()
                # same qdepth bound as the slow path, same ascending
                # order so mixed-kernel writers cannot deadlock
                for r in targets:
                    yield from guard.gates[r].acquire_slots(1)
                # WRITE_ONCE: the slow path updates the same flag
                # lock-free from Linux CPUs
                fpext.set("congested",
                          1 if any(guard.gates[r].congested
                                   for r in targets) else 0,
                          atomic=True)
            yield from linux_driver.submit_lock.acquire("mckernel",
                                                        lwk.aspace)
            try:
                for r in targets:
                    self.blockdev.submit(BlockIo(
                        op="write", replica=r, sector=sector,
                        nsectors=nsectors, payload=payload, user_ctx=head,
                        trace_ctx=head.trace_ctx))
            finally:
                linux_driver.submit_lock.release("mckernel")
        except BaseException:
            linux_driver._inflight.discard(head)
            kfree_cost = lwk.alloc.kfree(trk_addr, task.core_id)
            yield sim.timeout(kfree_cost)
            raise
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        lwk.tracer.count("pico.pxd_writes")
        return len(payload)

    def _completion(self, head: PxdIoHead):
        """Completion callback — lives in McKernel TEXT, *runs on a Linux
        CPU* in IRQ context (generator: its cost is charged there)."""
        lwk = self.lwk
        linux_core = lwk.node.cpus.owned_by("linux")[0].core_id
        cost = 0.0
        for addr in head.meta_addrs:
            # McKernel kfree from a Linux CPU: the foreign-free extension
            cost += lwk.alloc.kfree(addr, linux_core)
        yield lwk.sim.timeout(cost)
        # the acknowledgement policy (survivors ack / all-failed typed)
        # is the Linux driver's, shared by both submit paths
        self.linux_driver._ack(head)

    # -- fast-path ioctl: replica-direct read -------------------------------

    def fast_ioctl(self, task, fd: int, cmd: int, arg):
        """Generator: the LWK-local data-path ioctls."""
        if cmd == ioc.PXD_IOCTL_READ:
            span = PLANES.trace.begin_span(
                "pico.pxd_read", track_of(self), cat="fastpath") \
                if PLANES.trace is not None else None
            try:
                return (yield from self._read(task, fd, arg))
            finally:
                if PLANES.trace is not None and span is not None:
                    PLANES.trace.end_span(span)
        raise BadSyscall(f"pico pxd ioctl does not claim {cmd:#x}")

    def _read(self, task, fd: int, arg):
        """Replica-direct read: lowest in-service replica first, retry
        the next on media errors; typed when every target fails."""
        lwk = self.lwk
        sim = lwk.sim
        blk = self.blockdev.params
        sector, nsectors = arg["sector"], arg["nsectors"]
        self._check_range(sector, nsectors)
        fpext = self._fpext(task, fd)
        if fpext.get("suspend", atomic=True) != 0:
            lwk.tracer.count("pico.pxd_suspended")
            raise FastPathUnavailable("pxd device suspended")
        targets = self._targets(fpext)
        if not targets:
            lwk.tracer.count("pico.pxd_no_replicas")
            raise FastPathUnavailable("pxd has no in-service replicas")
        yield sim.timeout(blk.submit_base_pico)
        guard = self.linux_driver.guard
        errors = []
        for r in targets:
            evt = Event(sim)
            io = BlockIo(op="read", replica=r, sector=sector,
                         nsectors=nsectors, user_ctx={"io_evt": evt})
            yield from self.linux_driver.submit_lock.acquire("mckernel",
                                                             lwk.aspace)
            try:
                self.blockdev.submit(io)
            finally:
                self.linux_driver.submit_lock.release("mckernel")
            yield evt
            done: BlockIo = evt.value
            if done.status is None:
                lwk.tracer.count("pico.pxd_reads")
                return done.data
            errors.append((r, done.status))
            lwk.tracer.count("pico.pxd_read_retries")
            if guard is not None:
                guard.record_failure(guard.path_name(r),
                                     f"read error: {done.status}")
        raise MediaError(
            f"pico pxd read at sector {sector} failed on every in-service "
            "replica: " + "; ".join(str(e) for _r, e in errors))
