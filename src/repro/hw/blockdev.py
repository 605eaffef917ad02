"""The pxd block device: sector-addressed replicated backing stores.

Models the hardware half of the px-fuse fast-path contract (SNIPPETS.md
``pxd_fastpath.[ch]``): N backing replicas, each a sector-addressed
media store with its own service queue, draining IOs at a fixed media
latency plus streaming bandwidth and completing them through the node's
interrupt plumbing.  The replication *policy* — cloning writes, per-IO
trackers, eviction, resync — lives in the pxd driver
(:mod:`repro.linux.pxd`); the device only moves bytes and raises IRQs.

Fault points (all drawn here, where the media is):

* ``media.write_error`` — the media rejects the write; nothing lands.
* ``media.torn_write`` — only a prefix of the payload lands before the
  write fails (power-loss tear), leaving divergent media behind.
* ``media.read_error`` — the media fails a sector read.
* ``pxd.path_loss`` — the path to the replica drops at submit time; the
  media goes offline and every queued IO fails until reattached.
* ``blk.irq_lost`` — a completion interrupt is dropped; the device
  watchdog redelivers it after ``irq_recovery_timeout``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..config import PLANES
from ..errors import DriverError, MediaError, ReproError
from ..obs.spans import track_of
from ..params import BlkParams
from ..sim import Simulator, Store, Tracer
from .irq import irq_enter, irq_exit


@dataclass
class BlockIo:
    """One IO to one replica: the device-level unit of work.

    The pxd driver clones a write into one ``BlockIo`` per in-service
    replica and threads its per-IO tracker through ``user_ctx``; the
    completion IRQ hands the same object back with ``status``/``data``
    filled in.
    """

    op: str                 # "write" | "read"
    replica: int
    sector: int
    nsectors: int
    payload: Optional[bytes] = None
    #: opaque driver context (the pxd io tracker address)
    user_ctx: object = None
    #: filled at completion: ``None`` on success, the typed error otherwise
    status: Optional[Exception] = None
    #: filled at completion of a successful read
    data: Optional[bytes] = None
    #: traced runs only: the submitting span (flow source for blk spans)
    trace_ctx: object = None

    def nbytes(self, sector_size: int) -> int:
        """Bytes this IO moves over the media."""
        if self.payload is not None:
            return len(self.payload)
        return self.nsectors * sector_size


class ReplicaMedia:
    """One backing replica: a sector-addressed byte store plus a path.

    ``online`` models the *path* to the media (cable/fabric), not the
    media itself: an offline replica fails every IO until the driver's
    probe machinery calls :meth:`reattach`.  Contents survive path loss
    — which is exactly why re-admission needs the resync scrubber.
    """

    def __init__(self, index: int, params: BlkParams):
        self.index = index
        self.params = params
        self.data = bytearray(params.sectors * params.sector_size)
        self.online = True

    def span(self, sector: int, nsectors: int) -> "tuple[int, int]":
        """Byte range of a sector run, bounds-checked."""
        if sector < 0 or nsectors <= 0 \
                or sector + nsectors > self.params.sectors:
            raise DriverError(
                f"replica {self.index}: bad sector range "
                f"[{sector}, {sector + nsectors}) of {self.params.sectors}")
        lo = sector * self.params.sector_size
        return lo, lo + nsectors * self.params.sector_size

    def peek(self, sector: int, nsectors: int) -> bytes:
        """Direct media inspection (oracles/resync only — no timing)."""
        lo, hi = self.span(sector, nsectors)
        return bytes(self.data[lo:hi])

    def poke(self, sector: int, payload: bytes) -> None:
        """Direct media write (resync scrubber only — no timing)."""
        lo, hi = self.span(sector, len(payload) // self.params.sector_size)
        self.data[lo:hi] = payload

    def reattach(self) -> None:
        """Bring the path back (the driver's re-probe machinery)."""
        self.online = True


class BlockDevice:
    """One pxd block device per node: N replica medias, each with a
    service queue drained at media speed, completing through the IRQ
    line installed by the pxd driver.

    :meth:`submit` is a *synchronous* enqueue — it never yields — so the
    pxd fast path may call it while holding the cross-kernel submit
    lock (PD009: no waits under a spinlock); all media time is charged
    in the per-replica drain processes.
    """

    def __init__(self, sim: Simulator, params: BlkParams, node_id: int,
                 tracer: Optional[Tracer] = None):
        if params.replicas <= 0:
            raise ReproError("BlockDevice requires params.blk.replicas > 0")
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.tracer = tracer if tracer is not None else Tracer()
        self.replicas: List[ReplicaMedia] = [
            ReplicaMedia(i, params) for i in range(params.replicas)]
        self._queues: List[Deque[BlockIo]] = [
            deque() for _ in range(params.replicas)]
        self._work: List[Store] = [
            Store(sim, name=f"blk{node_id}.r{i}.work")
            for i in range(params.replicas)]
        self._procs = [sim.process(self._drain(i))
                       for i in range(params.replicas)]
        #: installed by the pxd driver at probe
        self.irq_dispatcher = None
        #: optional :class:`repro.faults.FaultInjector` (chaos runs only)
        self.injector = None

    # -- submission ---------------------------------------------------------

    def submit(self, io: BlockIo) -> None:
        """Enqueue one IO on its replica's service queue (synchronous).

        A ``pxd.path_loss`` draw here knocks the replica's path offline
        before the IO reaches the media; the IO still completes — with a
        typed error — through the normal IRQ path so driver accounting
        is uniform.
        """
        media = self._media(io.replica)
        if io.op not in ("write", "read"):
            raise DriverError(f"unknown block op {io.op!r}")
        if io.op == "write":
            if io.payload is None or len(io.payload) != \
                    io.nsectors * self.params.sector_size:
                raise DriverError(
                    f"write payload must cover exactly {io.nsectors} "
                    f"sector(s)")
            media.span(io.sector, io.nsectors)  # validate before queueing
        else:
            media.span(io.sector, io.nsectors)
        inj = self.injector
        if inj is not None and inj.fires("pxd.path_loss"):
            media.online = False
            self.tracer.count("blk.path_loss")
        self._queues[io.replica].append(io)
        self.tracer.count(f"blk.r{io.replica}.submits")
        if len(self._queues[io.replica]) == 1:
            self._work[io.replica].put(None)  # kick the drain

    def _media(self, index: int) -> ReplicaMedia:
        try:
            return self.replicas[index]
        except IndexError:
            raise DriverError(f"no replica {index}")

    # -- media service ------------------------------------------------------

    def _drain(self, index: int):
        media = self.replicas[index]
        queue = self._queues[index]
        while True:
            if not queue:
                yield self._work[index].get()
                continue
            io = queue.popleft()
            span = PLANES.trace.begin_span(
                "blk.io", track_of(self), cat="blk",
                args={"op": io.op, "replica": index,
                      "sector": io.sector, "nsectors": io.nsectors}) \
                if PLANES.trace is not None else None
            yield self.sim.timeout(
                self.params.media_latency
                + io.nbytes(self.params.sector_size)
                / self.params.media_bandwidth)
            self._service(media, io)
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
            self.raise_irq(io)

    def _service(self, media: ReplicaMedia, io: BlockIo) -> None:
        """Apply the IO to the media, drawing the media fault points."""
        if not media.online:
            io.status = MediaError(
                f"replica {media.index}: path offline", replica=media.index)
            self.tracer.count(f"blk.r{media.index}.offline_fails")
            return
        inj = self.injector
        if io.op == "write":
            if inj is not None \
                    and inj.fires("media.torn_write"):
                # power-loss tear: a prefix lands, then the write fails
                lo, _hi = media.span(io.sector, io.nsectors)
                torn = len(io.payload) // 2
                media.data[lo:lo + torn] = io.payload[:torn]
                io.status = MediaError(
                    f"replica {media.index}: torn write at sector "
                    f"{io.sector}", replica=media.index)
                self.tracer.count(f"blk.r{media.index}.torn")
                return
            if inj is not None \
                    and inj.fires("media.write_error"):
                io.status = MediaError(
                    f"replica {media.index}: media write error at sector "
                    f"{io.sector}", replica=media.index)
                self.tracer.count(f"blk.r{media.index}.write_errors")
                return
            media.poke(io.sector, io.payload)
            self.tracer.record(f"blk.r{media.index}.write_bytes",
                               len(io.payload))
        else:
            if inj is not None \
                    and inj.fires("media.read_error"):
                io.status = MediaError(
                    f"replica {media.index}: media read error at sector "
                    f"{io.sector}", replica=media.index)
                self.tracer.count(f"blk.r{media.index}.read_errors")
                return
            io.data = media.peek(io.sector, io.nsectors)
            self.tracer.record(f"blk.r{media.index}.read_bytes",
                               io.nsectors * self.params.sector_size)

    # -- interrupts ---------------------------------------------------------

    def raise_irq(self, io: BlockIo) -> None:
        """Completion interrupt, with the lost-IRQ watchdog."""
        self.tracer.count("blk.irq")
        if self.irq_dispatcher is None:
            raise ReproError(
                f"blockdev {self.node_id}: IRQ raised with no dispatcher "
                f"(pxd driver not loaded?)")
        inj = self.injector
        if inj is not None and inj.fires("blk.irq_lost"):
            # the interrupt is dropped; the device-side completion
            # watchdog notices the stuck IO and redelivers much later
            self.sim.timeout(inj.plan.irq_recovery_timeout).add_callback(
                lambda _evt: self._recover_irq(io))
            return
        irq_enter("linux")
        try:
            self.irq_dispatcher(io)
        finally:
            irq_exit("linux")

    def _recover_irq(self, io: BlockIo) -> None:
        self.tracer.count("blk.irq_recovered")
        irq_enter("linux")
        try:
            self.irq_dispatcher(io)
        finally:
            irq_exit("linux")
