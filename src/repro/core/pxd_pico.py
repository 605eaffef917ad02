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

from ..config import PLANES
from ..errors import BadSyscall, FastPathUnavailable, MediaError
from ..hw.blockdev import BlockIo
from ..linux.pxd import ioctls as ioc
from ..linux.pxd.driver import PxdIoHead
from ..obs.spans import track_of
from ..sim import Event
from .extract import StructView
from .lockclasses import declare_lock_use
from .picodriver import PicoDriver

# the fast path takes the Linux driver's submit lock (declared with its
# rank in linux/pxd/driver.py) without owning it
declare_lock_use("pxd.submit", "core/pxd_pico")


class PxdPicoDriver(PicoDriver):
    """Fast-path pxd driver resident in McKernel."""

    #: (struct, fields) the fast path needs (section 3.2)
    EXTRACTION_MANIFEST = {
        "pxd_device": ["size", "qdepth", "nfd"],
        "pxd_fastpath_extension": ["nfd", "inservice_mask", "suspend",
                                   "wr_seq", "congested"],
        "pxd_io_tracker": ["orig_sector", "nsectors", "active", "fails"],
    }
    #: writev and the READ data ioctl; everything else is offloaded
    CLAIMS = {"writev": None, "ioctl": ioc.DATA_IOCTLS}

    def attach(self, lwk) -> None:
        """The chassis checklist, then the device handle."""
        super().attach(lwk)
        self.blockdev = lwk.node.blockdev

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
        trk_addr, alloc_cost = lwk.alloc.kmalloc(
            self.layouts["pxd_io_tracker"].byte_size, task.core_id)
        tracker = self._view("pxd_io_tracker", trk_addr)
        # benign by construction: io trackers are per-request
        # allocations; the fast and slow paths never share one, so
        # the cross-kernel writes below target distinct objects
        tracker.set("orig_sector", sector)  # pd-ignore[PD015.5]
        tracker.set("nsectors", nsectors)  # pd-ignore[PD015.5]
        tracker.set("active", len(targets), atomic=True)
        tracker.set("fails", 0, atomic=True)
        # atomic cross-kernel increment of the driver's write sequence
        fpext.add("wr_seq", 1)
        completion_tracker = self._view("pxd_io_tracker", trk_addr,
                                        kernel="linux")
        head = PxdIoHead(sector=sector, nsectors=nsectors, payload=payload,
                         targets=targets, tracker_add=completion_tracker.add,
                         remaining=len(targets),
                         completion=meta.get("completion"),
                         callback_addr=self.completion_addr,
                         meta_addrs=[trk_addr])
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
            yield from sim.delay(blk.submit_base_pico
                                 + len(spans) * sc.ptwalk_per_span
                                 + alloc_cost)
            guard = linux_driver.guard
            if guard is not None:
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
            yield from sim.delay(kfree_cost)
            raise
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        lwk.tracer.count("pico.pxd_writes")
        return len(payload)

    def _completion(self, head: PxdIoHead):
        """Completion callback — lives in McKernel TEXT, *runs on a Linux
        CPU* in IRQ context (generator: its cost is charged there); the
        Linux driver acknowledges the write once it returns."""
        lwk = self.lwk
        linux_core = lwk.node.cpus.owned_by("linux")[0].core_id
        cost = 0.0
        for addr in head.meta_addrs:
            # McKernel kfree from a Linux CPU: the foreign-free extension
            cost += lwk.alloc.kfree(addr, linux_core)
        yield from lwk.sim.delay(cost)

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
        yield from sim.delay(blk.submit_base_pico)
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
            if io.status is None:
                lwk.tracer.count("pico.pxd_reads")
                return io.data
            errors.append((r, io.status))
            lwk.tracer.count("pico.pxd_read_retries")
            if guard is not None:
                guard.record_failure(guard.path_name(r),
                                     f"read error: {io.status}")
        raise MediaError(
            f"pico pxd read at sector {sector} failed on every in-service "
            "replica: " + "; ".join(str(e) for _r, e in errors))
