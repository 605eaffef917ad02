"""The pxd Linux driver: replicated writes over the modeled block device.

The px-fuse robustness contract (SNIPPETS.md ``pxd_fastpath.[ch]``)
reproduced on the simulator's chassis:

* every write is cloned to all *in-service* backing replicas, tracked by
  a ``pxd_io_tracker`` in shared kernel memory whose atomic
  ``active``/``fails`` counters the completion IRQs decrement/increment;
* a replica that fails a write is **evicted** immediately — once media
  content may have diverged, leaving the replica in service would break
  read-your-writes — and the write is acknowledged from the survivors
  (typed :class:`~repro.errors.MediaError` only when *every* targeted
  replica failed);
* reads retry across the in-service set and fail typed when exhausted;
* with the guard plane installed, per-replica breakers absorb the
  failure feed and the driver re-probes an evicted path once its breaker
  admits traffic: reattach, probe-write the reserved scratch sector,
  resync divergent sectors from a healthy survivor, then re-admit —
  refusing (typed) when no healthy source exists.

The replica lifecycle is an explicit FSM (``inservice`` -> ``evicted``
-> ``probing`` -> ``inservice``/``evicted``) whose transitions are
recorded for the PicoCheck ``pxd-fallback`` scenario's legality oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...config import PLANES
from ...core.lockclasses import declare_lock_class
from ...core.structs import StructInstance
from ...errors import BadSyscall, DriverError, MediaError
from ...hw.blockdev import BlockIo
from ...obs.spans import track_of
from ...sim import Event
from ...units import USEC
from ..vfs import File, FileOps
from . import ioctls as ioc
from .debuginfo import CURRENT_VERSION, build_module, struct_defs

# The submit lock serializes block-IO submission across Linux and
# McKernel, exactly like hfi1.sdma_submit one rank below it: both are
# innermost (taken last, nothing nests inside), but they are distinct
# classes so the lock-graph names cross-device orderings explicitly.
declare_lock_class(
    "pxd.submit", rank=22, subsystem="linux/pxd",
    attrs=("submit_lock",),
    doc="serializes block IO submission across Linux and McKernel")

#: flat cost of the administrative ioctls
_ADMIN_IOCTL_COST = 0.6 * USEC
#: per-open setup cost
_OPEN_COST = 2.1 * USEC

#: replica lifecycle FSM legal edges (PicoCheck oracle input)
REPLICA_STATES = ("inservice", "evicted", "probing")
REPLICA_LEGAL_TRANSITIONS = frozenset({
    ("inservice", "evicted"),
    ("evicted", "probing"),
    ("probing", "inservice"),
    ("probing", "evicted"),
})


@dataclass(eq=False)
class PxdIoHead:
    """Driver-side head of one replicated write (px-fuse ``head`` bio).

    ``tracker_add`` binds the shared-memory ``pxd_io_tracker`` counters
    through whichever accessor the submitting path owns — the Linux
    driver's :class:`StructInstance` or the PicoDriver's DWARF
    :class:`~repro.core.extract.StructView` — so the completion IRQ
    updates the same heap words either way.
    """

    sector: int
    nsectors: int
    payload: bytes
    targets: Tuple[int, ...]
    tracker_add: Callable[..., int]
    remaining: int = 0
    failures: List[Tuple[int, Exception]] = field(default_factory=list)
    completion: Optional[Event] = None
    #: slow path: completion closure run at head finish
    on_complete: Optional[Callable[["PxdIoHead"], object]] = None
    #: fast path: McKernel-TEXT completion address (callback registry)
    callback_addr: Optional[int] = None
    meta_addrs: List[int] = field(default_factory=list)
    owner_kernel: str = "linux"
    trace_ctx: object = None


class PxdDriver(FileOps):
    """``pxd.ko``: registered with the VFS as ``/dev/pxd/pxd<unit>``."""

    def __init__(self, version: str = CURRENT_VERSION, unit: int = 0):
        self.version = version
        self.unit = unit
        self.device_path = f"/dev/pxd/pxd{unit}"
        #: the shipped module binary — DWARF consumers extract from this
        self.binary = build_module(version)
        self._defs = struct_defs(version)
        self.kernel = None
        self.blockdev = None
        self.heap = None
        self.device: Optional[StructInstance] = None
        self.fpext: Optional[StructInstance] = None
        #: replica indices currently serving IO (mirrored into the
        #: extension struct's ``inservice_mask`` for the fast path)
        self.inservice: Set[int] = set()
        #: per-evicted-replica divergent sector set (resync work list)
        self._dirty: Dict[int, Set[int]] = {}
        #: replicas with a probe/readmit in progress
        self._probing: Set[int] = set()
        #: the replica most recently taken out of service; when the
        #: whole set empties, this one is the data authority (see
        #: :meth:`_resync_and_readmit`)
        self._last_evicted: Optional[int] = None
        #: replica lifecycle FSM: recorded transitions + current states
        self._replica_state: Dict[int, str] = {}
        self.replica_transitions: List[Tuple[float, int, str, str, str]] = []
        #: runtime invariant breaches (PicoCheck oracle input)
        self.violations: List[str] = []
        #: one entry per resync attempt: divergence found / refusals
        self.resync_reports: List[Dict[str, object]] = []
        #: writes in flight (head submitted, last completion pending)
        self._inflight: Set[PxdIoHead] = set()
        #: probes/readmits parked until bypassing writes drain
        self._admit_waiters: List[Event] = []
        #: cross-kernel callback registry, installed by the machine
        #: builder when an LWK is present
        self.callbacks = None
        #: optional :class:`repro.guard.GuardManager` (replica breakers
        #: + qdepth gates; installed by the machine builder when the
        #: guard plane is enabled, ``None`` otherwise)
        self.guard = None

    # -- module load -------------------------------------------------------

    def probe(self, kernel) -> None:
        """Module init: root structs, submit lock, chrdev, IRQ line."""
        self.kernel = kernel
        self.blockdev = kernel.node.blockdev
        if self.blockdev is None:
            raise DriverError("pxd probe with no block device on the node")
        self.heap = kernel.node.kheap
        blk = self.blockdev.params
        self.device = StructInstance(self._defs["pxd_device"], self.heap)
        self.device.set("dev_id", 0xBD0 + self.unit)
        self.device.set("size", blk.sectors * blk.sector_size)
        self.device.set("major", 252)
        self.device.set("minor", self.unit)
        self.device.set("qdepth", blk.qdepth)
        self.device.set("nfd", blk.replicas)
        self.fpext = StructInstance(self._defs["pxd_fastpath_extension"],
                                    self.heap)
        self.device.set("fastpath", self.fpext.addr)
        self.fpext.set("nfd", blk.replicas)
        self.fpext.set("suspend", 0, atomic=True)
        self.fpext.set("congested", 0, atomic=True)
        self.fpext.set("nr_congestion_on", blk.qdepth)
        self.fpext.set("nr_congestion_off", max(1, blk.qdepth * 3 // 4))
        self.inservice = set(range(blk.replicas))
        self._replica_state = {i: "inservice" for i in range(blk.replicas)}
        self.fpext.set("inservice_mask", self._mask(), atomic=True)
        # block-IO submission lock: shared-heap spin lock so the fast
        # path can serialize with us (same pattern as hfi1.sdma_submit)
        from ...core.sync import CrossKernelSpinLock
        self.submit_lock = CrossKernelSpinLock(kernel.sim, self.heap,
                                               name="pxd.submit",
                                               tracer=kernel.tracer)
        kernel.vfs.register_chrdev(self.device_path, self)
        from ..device_model import Device
        self.sysfs = Device(f"pxd{self.unit}", "block")
        self.sysfs.add_attr("size", lambda: self.device.get("size"))
        self.sysfs.add_attr("nfd", blk.replicas)
        self.sysfs.add_attr("inservice",
                            lambda: ",".join(map(str, sorted(self.inservice))))
        kernel.devices.register(self.sysfs)
        self.blockdev.irq_dispatcher = self._irq

    # -- geometry ----------------------------------------------------------

    @property
    def data_sectors(self) -> int:
        """Sectors available to callers; the last sector is the probe
        scratch area (probe writes must never touch application data)."""
        return self.blockdev.params.sectors - 1

    @property
    def probe_sector(self) -> int:
        return self.blockdev.params.sectors - 1

    def _mask(self) -> int:
        mask = 0
        for i in self.inservice:
            mask |= 1 << i
        return mask

    def _check_range(self, sector: int, nsectors: int) -> None:
        if sector < 0 or nsectors <= 0 \
                or sector + nsectors > self.data_sectors:
            raise BadSyscall(
                f"pxd: sector range [{sector}, {sector + nsectors}) outside "
                f"data region [0, {self.data_sectors})")

    # -- replica lifecycle FSM ---------------------------------------------

    def _transition(self, replica: int, new: str, reason: str) -> None:
        old = self._replica_state.get(replica, "inservice")
        self.replica_transitions.append(
            (self.kernel.sim.now, replica, old, new, reason))
        if (old, new) not in REPLICA_LEGAL_TRANSITIONS:
            self.violations.append(
                f"pxd replica {replica}: illegal {old}->{new} "
                f"at t={self.kernel.sim.now * 1e6:.1f}us ({reason})")
        self._replica_state[replica] = new

    def fsm_violations(self) -> List[str]:
        """Replica transitions outside the legal lifecycle edge set
        (empty on a healthy run; a PicoCheck oracle)."""
        bad = []
        for when, replica, old, new, reason in self.replica_transitions:
            if (old, new) not in REPLICA_LEGAL_TRANSITIONS:
                bad.append(f"pxd replica {replica}: illegal {old}->{new} "
                           f"at t={when * 1e6:.1f}us ({reason})")
        return bad

    def _evict(self, replica: int, reason: str,
               sectors: Optional[Tuple[int, int]] = None) -> None:
        """Take a replica out of service (always-on data-integrity
        action: a write failure means its content may have diverged)."""
        if replica not in self.inservice:
            # already evicted by a concurrent IO; just extend its dirt
            if sectors is not None and replica in self._dirty:
                lo, n = sectors
                self._dirty[replica].update(range(lo, lo + n))
            return
        self.inservice.discard(replica)
        self.fpext.set("inservice_mask", self._mask(), atomic=True)
        self.fpext.add("fail_cnt", 1)
        self._last_evicted = replica
        self._dirty[replica] = set()
        if sectors is not None:
            lo, n = sectors
            self._dirty[replica].update(range(lo, lo + n))
        self.blockdev.tracer.count("pxd.evictions")
        self._transition(replica, "evicted", reason)
        if self.guard is not None:
            self.guard.record_failure(self.guard.path_name(replica), reason)
        if PLANES.trace is not None:
            PLANES.trace.instant_span(
                "pxd.evict", track_of(self), cat="recovery",
                args={"replica": replica, "reason": reason})

    def _readmit(self, replica: int) -> None:
        """Return a resynced replica to service (FSM: probing->inservice)."""
        self.inservice.add(replica)
        self.fpext.set("inservice_mask", self._mask(), atomic=True)
        self._dirty.pop(replica, None)
        self.blockdev.tracer.count("pxd.readmits")
        self._transition(replica, "inservice", "resync complete")
        if PLANES.trace is not None:
            PLANES.trace.instant_span(
                "pxd.readmit", track_of(self), cat="recovery",
                args={"replica": replica})

    # -- file operations ---------------------------------------------------

    def open(self, kernel, file: File, task):
        """Generator: root the file at the fastpath extension struct —
        the address the PicoDriver dereferences cross-kernel."""
        yield kernel.sim.timeout(_OPEN_COST)
        file.private_data = self.fpext.addr

    def release(self, kernel, file: File, task):
        """Generator: drop the file's root pointer."""
        yield kernel.sim.timeout(_OPEN_COST / 2)
        file.private_data = None

    def writev(self, kernel, file: File, task, iovecs):
        """``writev(fd, iovecs)``: iovec 0 is the request header
        (``sector``/``payload``/``completion``), the rest describe the
        user buffers (charged through ``get_user_pages``).

        Returns once the write is *submitted* to every in-service
        replica; the acknowledgement (success from the survivors, or a
        typed :class:`MediaError` when all targeted replicas failed)
        arrives through the header's completion event at head finish.
        """
        if len(iovecs) < 2:
            raise BadSyscall("pxd writev needs a header iovec and at "
                             "least one data iovec")
        meta = iovecs[0]
        payload: bytes = meta["payload"]
        sector: int = meta["sector"]
        blk = self.blockdev.params
        if len(payload) % blk.sector_size:
            raise BadSyscall(f"pxd write of {len(payload)}B is not "
                             f"sector-aligned ({blk.sector_size}B sectors)")
        nsectors = len(payload) // blk.sector_size
        self._check_range(sector, nsectors)
        mem = kernel.params.mem

        cost = blk.submit_base
        for vaddr, length in iovecs[1:]:
            _pages, gup_cost = kernel.mm.get_user_pages(task, vaddr, length)
            cost += gup_cost
        tracker = StructInstance(self._defs["pxd_io_tracker"], self.heap)
        cost += mem.kmalloc_cost

        span = PLANES.trace.begin_span(
            "pxd.writev", track_of(self), cat="driver",
            args={"sector": sector, "nsectors": nsectors}) \
            if PLANES.trace is not None else None
        head: Optional[PxdIoHead] = None
        try:
            yield kernel.sim.timeout(cost)
            # the target set is fixed only now, after the setup costs:
            # until this point a concurrent readmit may still widen it
            targets = tuple(sorted(self.inservice))
            if not targets:
                tracker.free()
                # nothing in flight means no head-finish will ever kick
                # the probe machinery — kick it from the failing submit
                if self.guard is not None:
                    self._maybe_probe()
                raise MediaError("pxd write with no in-service replicas")
            tracker.set("orig_sector", sector)
            tracker.set("nsectors", nsectors)
            tracker.set("active", len(targets), atomic=True)
            tracker.set("fails", 0, atomic=True)
            self.fpext.add("wr_seq", 1)
            completion = meta.get("completion")

            def complete(head: PxdIoHead):
                # runs in IRQ context on a Linux CPU; returns a
                # generator so the cleanup cost is charged there
                def cleanup():
                    tracker.free()
                    yield kernel.sim.timeout(mem.kfree_cost)
                    self._ack(head)
                return cleanup()

            head = PxdIoHead(sector=sector, nsectors=nsectors,
                             payload=payload, targets=targets,
                             tracker_add=tracker.add,
                             remaining=len(targets), completion=completion,
                             on_complete=complete, owner_kernel="linux")
            if PLANES.trace is not None:
                head.trace_ctx = span
            # registered the moment the target set is fixed, before any
            # further yield: a probe's drain check must see every write
            # whose target set could exclude its replica
            self._inflight.add(head)
            guard = self.guard
            if guard is not None:
                # suspended device: park on the queued-IO list; resume()
                # replays us in arrival order
                yield from guard.park_if_suspended()
                # qdepth bound: one slot per targeted replica, ascending
                # order so concurrent writers cannot deadlock
                for r in targets:
                    yield from guard.gates[r].acquire_slots(1)
                # WRITE_ONCE: the fast path updates the same flag
                # lock-free from McKernel CPUs
                self.fpext.set("congested",
                               1 if any(guard.gates[r].congested
                                        for r in targets) else 0,
                               atomic=True)
            yield from self.submit_lock.acquire("linux", kernel.aspace)
            try:
                for r in targets:
                    self.blockdev.submit(BlockIo(
                        op="write", replica=r, sector=sector,
                        nsectors=nsectors, payload=payload, user_ctx=head,
                        trace_ctx=head.trace_ctx))
            finally:
                self.submit_lock.release("linux")
        except BaseException:
            if head is not None:
                self._inflight.discard(head)
                tracker.free()
            raise
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.blockdev.tracer.count("pxd.writes")
        return len(payload)

    def _ack(self, head: PxdIoHead) -> None:
        """Complete the caller's event: survivors ack, all-failed is a
        typed error."""
        completion = head.completion
        if completion is None or completion.triggered:
            return
        if len(head.failures) >= len(head.targets):
            completion.fail(MediaError(
                f"pxd write at sector {head.sector} failed on all "
                f"{len(head.targets)} targeted replica(s): "
                + "; ".join(str(e) for _r, e in head.failures)))
        else:
            completion.succeed(head)

    # -- ioctl surface -----------------------------------------------------

    def ioctl(self, kernel, file: File, task, cmd, arg):
        """Generator: the pxd control surface."""
        if cmd == ioc.PXD_IOCTL_READ:
            return (yield from self._read(kernel, arg))
        if cmd == ioc.PXD_IOCTL_GET_STATS:
            yield kernel.sim.timeout(_ADMIN_IOCTL_COST)
            return self.stats()
        if cmd == ioc.PXD_IOCTL_UPDATE_PATH:
            return (yield from self._update_path(kernel, arg))
        if cmd == ioc.PXD_IOCTL_SET_SUSPEND:
            yield kernel.sim.timeout(_ADMIN_IOCTL_COST)
            self.fpext.set("suspend",
                           1 if (arg.get("suspend")
                                 if isinstance(arg, dict)
                                 else arg) else 0,
                           atomic=True)
            return 0
        raise BadSyscall(f"pxd: unknown ioctl {cmd:#x}")

    def _read(self, kernel, arg):
        """Read a sector run: serve from the lowest in-service replica,
        retrying the next on media errors; typed when all fail."""
        sector, nsectors = arg["sector"], arg["nsectors"]
        self._check_range(sector, nsectors)
        yield kernel.sim.timeout(self.blockdev.params.submit_base)
        guard = self.guard
        if guard is not None:
            yield from guard.park_if_suspended()
        errors: List[Tuple[int, Exception]] = []
        for r in sorted(self.inservice):
            evt = Event(kernel.sim)
            io = BlockIo(op="read", replica=r, sector=sector,
                         nsectors=nsectors, user_ctx={"io_evt": evt})
            yield from self.submit_lock.acquire("linux", kernel.aspace)
            try:
                self.blockdev.submit(io)
            finally:
                self.submit_lock.release("linux")
            yield evt
            done: BlockIo = evt.value
            if done.status is None:
                self.blockdev.tracer.count("pxd.reads")
                return done.data
            errors.append((r, done.status))
            self.blockdev.tracer.count("pxd.read_retries")
            if guard is not None:
                guard.record_failure(guard.path_name(r),
                                     f"read error: {done.status}")
        # with nothing left in service there may be no traffic to kick
        # re-probing at head finish; kick it from the failing read
        if self.guard is not None:
            self._maybe_probe()
        raise MediaError(
            f"pxd read at sector {sector} failed on every in-service "
            f"replica: " + ("; ".join(str(e) for _r, e in errors)
                            if errors else "none in service"))

    def _update_path(self, kernel, arg):
        """Administrative re-admission of an evicted replica: reattach
        the path, resync, re-admit — or refuse typed."""
        r = int(arg["replica"])
        yield kernel.sim.timeout(_ADMIN_IOCTL_COST)
        if r < 0 or r >= self.blockdev.params.replicas:
            raise BadSyscall(f"pxd: no replica {r}")
        if r in self.inservice:
            return 0
        if r in self._probing:
            raise DriverError(f"pxd replica {r}: probe already in progress")
        self._probing.add(r)
        try:
            self.blockdev.replicas[r].reattach()
            self._transition(r, "probing", "admin UPDATE_PATH")
            ok = yield from self._resync_and_readmit(r)
        finally:
            self._probing.discard(r)
        if not ok:
            raise MediaError(
                f"pxd replica {r} re-admission refused: no healthy "
                f"source to resync from", replica=r)
        return 1

    def stats(self) -> Dict[str, object]:
        """Point-in-time health snapshot (GET_STATS / reports)."""
        return {
            "inservice": sorted(self.inservice),
            "states": dict(self._replica_state),
            "wr_seq": self.fpext.get("wr_seq"),
            "fail_cnt": self.fpext.get("fail_cnt"),
            "suspend": self.fpext.get("suspend", atomic=True),
            "dirty": {r: len(s) for r, s in self._dirty.items()},
            "inflight": len(self._inflight),
        }

    # -- completion path ---------------------------------------------------

    def _irq(self, io: BlockIo) -> None:
        """Block-device IRQ dispatcher: route to a Linux CPU via the
        interrupt controller, then run the completion there."""
        self.kernel.interrupts.deliver(self._blk_complete, io)

    def _blk_complete(self, io: BlockIo):
        """Runs on a Linux OS CPU in IRQ context."""
        if PLANES.trace is not None:
            io.trace_ctx = PLANES.trace.instant_span(
                "pxd.irq", track_of(self), cat="irq",
                args={"op": io.op, "replica": io.replica},
                flow_from=io.trace_ctx)
        ctx = io.user_ctx
        if isinstance(ctx, dict):
            # reads and probe writes: complete the waiter, no tracker
            evt = ctx.get("io_evt")
            if evt is not None and not evt.triggered:
                evt.succeed(io)
            return None
        head: PxdIoHead = ctx
        r = io.replica
        guard = self.guard
        if guard is not None:
            guard.gates[r].release_slots(1)
        head.remaining -= 1
        head.tracker_add("active", -1)
        if io.status is not None:
            head.failures.append((r, io.status))
            head.tracker_add("fails", 1)
            self._evict(r, str(io.status),
                        sectors=(head.sector, head.nsectors))
        elif guard is not None and r in self.inservice:
            guard.record_success(guard.path_name(r))
        if head.remaining == 0:
            return self._head_finish(head)
        return None

    def _head_finish(self, head: PxdIoHead):
        """Last replica completion: settle divergence bookkeeping, wake
        parked probes, kick re-probing, then run the head callback."""
        self._inflight.discard(head)
        acked = len(head.failures) < len(head.targets)
        if acked:
            # the write landed on the survivors; every replica outside
            # the target set (evicted before submit) now diverges here
            for r in range(self.blockdev.params.replicas):
                if r not in head.targets and r not in self.inservice \
                        and r in self._dirty:
                    self._dirty[r].update(
                        range(head.sector, head.sector + head.nsectors))
            self.blockdev.tracer.count("pxd.acked_writes")
        else:
            self.blockdev.tracer.count("pxd.failed_writes")
        if self._admit_waiters:
            waiters, self._admit_waiters = self._admit_waiters, []
            for w in waiters:
                if not w.triggered:
                    w.succeed()
        if self.guard is not None:
            self._maybe_probe()
        if head.callback_addr is not None:
            if self.callbacks is None:
                raise DriverError("pxd completion carries a callback "
                                  "address but no registry is installed")
            result = self.callbacks.invoke("linux", head.callback_addr, head)
        elif head.on_complete is not None:
            result = head.on_complete(head)
        else:
            result = None
        if result is not None and hasattr(result, "send"):
            return result
        return None

    # -- re-probing / resync (guard-driven) --------------------------------

    def _maybe_probe(self) -> None:
        """Start a probe for every evicted replica whose breaker admits
        traffic again (called at head finish; guard-gated by callers)."""
        guard = self.guard
        if guard is not None:
            from ...guard.breaker import BREAKER_PROBING
            for r, state in self._replica_state.items():
                if state != "evicted" or r in self._probing:
                    continue
                breaker = guard.breakers[guard.path_name(r)]
                if not breaker.admits():
                    continue
                if breaker.state == BREAKER_PROBING:
                    breaker.begin_probe()
                self._probing.add(r)
                self._transition(r, "probing", "breaker admits probe")
                self.blockdev.tracer.count("pxd.probes")
                self.kernel.sim.spawn(self._probe(r))

    def _probe(self, r: int):
        """Generator: probe-write the scratch sector of a reattached
        replica; on success (breaker closed) resync and re-admit."""
        sim = self.kernel.sim
        blk = self.blockdev.params
        media = self.blockdev.replicas[r]
        media.reattach()
        evt = Event(sim)
        pattern = bytes([(0xA5 + r) & 0xFF]) * blk.sector_size
        io = BlockIo(op="write", replica=r, sector=self.probe_sector,
                     nsectors=1, payload=pattern, user_ctx={"io_evt": evt})
        yield from self.submit_lock.acquire("linux", self.kernel.aspace)
        try:
            self.blockdev.submit(io)
        finally:
            self.submit_lock.release("linux")
        yield evt
        done: BlockIo = evt.value
        guard = self.guard
        try:
            if done.status is not None:
                if guard is not None:
                    guard.record_failure(guard.path_name(r),
                                         f"probe failed: {done.status}")
                self._transition(r, "evicted", f"probe failed: {done.status}")
                return
            if guard is not None:
                guard.record_success(guard.path_name(r))
                from ...guard.breaker import BREAKER_CLOSED
                if guard.breakers[guard.path_name(r)].state != BREAKER_CLOSED:
                    # failback hysteresis: more probe successes needed
                    self._transition(r, "evicted",
                                     "probe ok, breaker not yet closed")
                    return
            yield from self._resync_and_readmit(r)
        finally:
            self._probing.discard(r)

    def _resync_and_readmit(self, r: int):
        """Generator: copy divergent sectors from a healthy survivor
        until the dirty set is stable and no bypassing write is in
        flight, then re-admit.  Returns False (FSM back to ``evicted``,
        refusal reported) when no healthy source exists."""
        sim = self.kernel.sim
        blk = self.blockdev.params
        media = self.blockdev.replicas[r]
        synced: Set[int] = set()
        diverged = 0
        while True:
            # writes that bypassed this replica must drain before the
            # dirty set can be trusted as complete
            while any(r not in h.targets for h in self._inflight):
                waiter = Event(sim)
                self._admit_waiters.append(waiter)
                yield waiter
            sources = sorted(self.inservice)
            if not sources:
                if r == self._last_evicted:
                    # Every acknowledged write succeeded on the last
                    # replica standing (a write is only acked when a
                    # then-in-service target applied it), so its media
                    # is authoritative: re-admit it as-is and make every
                    # other evicted replica converge to it — including
                    # sectors torn by the unacked write that evicted it,
                    # whose content is undefined but must still end up
                    # identical everywhere.
                    adopted = self._dirty.get(r, set())
                    for other, dirt in self._dirty.items():
                        if other != r:
                            dirt.update(adopted)
                    self.resync_reports.append(
                        {"replica": r, "refused": False, "authority": True,
                         "adopted": len(adopted)})
                    self.blockdev.tracer.count("pxd.authority_readmits")
                    self._readmit(r)
                    return True
                self.blockdev.tracer.count("pxd.readmit_refused")
                self.resync_reports.append(
                    {"replica": r, "refused": True,
                     "reason": "no healthy source",
                     "dirty": len(self._dirty.get(r, ()))})
                self._transition(r, "evicted",
                                 "readmit refused: no healthy source")
                return False
            pending = sorted(s for s in self._dirty.get(r, ())
                             if s not in synced)
            if not pending:
                break
            src = self.blockdev.replicas[sources[0]]
            nbytes = 0
            for sector in pending:
                want = src.peek(sector, 1)
                if media.peek(sector, 1) != want:
                    diverged += 1
                    media.poke(sector, want)
                synced.add(sector)
                nbytes += blk.sector_size
            yield sim.timeout(nbytes / blk.resync_bandwidth)
        self.resync_reports.append(
            {"replica": r, "refused": False, "diverged": diverged,
             "scanned": len(synced)})
        self.blockdev.tracer.count("pxd.resyncs")
        self.blockdev.tracer.record("pxd.resync_sectors", len(synced))
        self._readmit(r)
        return True
