"""Application communication signatures and the micro execution driver.

A signature is deliberately coarse: per iteration, an app does some
computation and a sequence of *phases* chosen from a small vocabulary that
covers the paper's workloads:

* :class:`HaloExchange` — nonblocking neighbor exchange then waitall
  (LAMMPS halos, HACC particle exchange);
* :class:`SweepPhase` — latency-chained pipeline stages where downstream
  ranks wait on upstream messages (UMT2013 Sn transport sweeps); this is
  the phase that converts per-syscall offload latency into critical-path
  time;
* :class:`CollectivePhase` — barrier/allreduce/bcast/alltoallv/scan;
* :class:`MemChurn` — mmap/munmap pairs per iteration (QBOX temporary
  buffers);
* :class:`FileIO` — small offloaded reads (diagnostics).

``imbalance_cv`` adds app-intrinsic load imbalance (log-normal multiplier
on compute), absorbed at the next synchronizing phase — the source of the
Barrier/Wait time Table 1 shows even on Linux.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..errors import ReproError
from ..mpi import collectives
from ..mpi.communicator import MpiRank
from ..mpi.p2p import waitall
from ..units import KiB


@dataclass(frozen=True)
class HaloExchange:
    """Nonblocking exchange with ``neighbors`` partners of ``msg_bytes``
    each, completed by a waitall."""

    neighbors: int
    msg_bytes: int
    rounds: int = 1


@dataclass(frozen=True)
class SweepPhase:
    """``stages`` dependency-chained hops; at each stage the active ranks
    (``active_fraction`` of all) forward ``msg_bytes`` downstream and the
    next stage cannot start before delivery."""

    stages: int
    msg_bytes: int
    active_fraction: float = 1.0
    msgs_per_stage: int = 1


@dataclass(frozen=True)
class CollectivePhase:
    """``count`` back-to-back collectives of ``kind`` on ``nbytes``.

    ``scope`` restricts the collective to a sub-communicator of that many
    ranks (0 = world) — QBOX's alltoallv runs within column groups."""

    kind: str            # barrier|allreduce|bcast|alltoallv|allgather|scan
    nbytes: int = 8
    count: int = 1
    scope: int = 0


@dataclass(frozen=True)
class MemChurn:
    """``mmaps`` mmap+munmap pairs of ``nbytes`` each per iteration."""

    mmaps: int
    nbytes: int


@dataclass(frozen=True)
class FileIO:
    """Small offloaded reads (diagnostics, tables)."""

    reads: int
    nbytes: int = 4 * KiB


Phase = Union[HaloExchange, SweepPhase, CollectivePhase, MemChurn, FileIO]


@dataclass(frozen=True)
class AppSpec:
    """One mini-application's signature (weak scaling: per-rank work and
    message sizes stay constant as nodes are added)."""

    name: str
    ranks_per_node: int
    threads_per_rank: int
    iterations: int
    #: computation seconds per rank per iteration
    compute_seconds: float
    phases: Tuple[Phase, ...]
    #: log-normal CV of per-rank compute (app-intrinsic imbalance)
    imbalance_cv: float = 0.0
    #: LWK memory-management compute speedup (large pages / contiguous
    #: MCDRAM reduce TLB pressure on KNL); 1.0 = no effect
    lwk_compute_factor: float = 1.0
    #: build a Cartesian topology at init (HACC's 3D grid)
    uses_cart: bool = False
    #: library reorder work inside Cart_create, seconds per rank at P
    #: ranks = cart_coeff * P * log2(P), scaled by the TLB factor
    cart_coeff: float = 0.0
    #: smallest node count the app runs on (QBOX needs 4, section 4.3)
    min_nodes: int = 1

    def ranks_for(self, n_nodes: int) -> int:
        """Total ranks at ``n_nodes`` (weak scaling)."""
        return n_nodes * self.ranks_per_node

    def validate(self) -> None:
        """Reject malformed geometries, unknown collective kinds and
        negative collective scopes."""
        if self.ranks_per_node < 1 or self.iterations < 1:
            raise ReproError(f"{self.name}: bad geometry")
        for phase in self.phases:
            if not isinstance(phase, CollectivePhase):
                continue
            if phase.kind not in ("barrier", "allreduce", "bcast",
                                  "alltoallv", "allgather", "scan"):
                raise ReproError(
                    f"{self.name}: unknown collective {phase.kind!r}")
            if phase.scope < 0:
                raise ReproError(
                    f"{self.name}: {phase.kind} scope {phase.scope} < 0")


# --- micro driver ------------------------------------------------------------

def _micro_phase(rank: MpiRank, phase: Phase, it: int):
    """Generator: execute one phase through the real MPI stack."""
    size, me = rank.size, rank.rank
    if isinstance(phase, HaloExchange):
        for r in range(phase.rounds):
            reqs = []
            for k in range(1, phase.neighbors + 1):
                dst = (me + k) % size
                src = (me - k) % size
                tag = ("halo", it, r, k)
                reqs.append(rank.irecv(src, tag, phase.msg_bytes))
                sreq = yield from rank.isend(dst, tag, phase.msg_bytes)
                reqs.append(sreq)
            yield from waitall(rank, reqs)
    elif isinstance(phase, SweepPhase):
        # pipeline along the ring of active ranks using persistent
        # channels — UMT2013's MPI_Start/MPI_Wait/MPI_Request_free pattern
        stride = max(1, round(1 / phase.active_fraction))
        n_active = -(-size // stride)
        if me % stride == 0 and n_active > 1:
            idx = me // stride
            nxt = ((idx + 1) % n_active) * stride
            prv = ((idx - 1) % n_active) * stride
            sends = [rank.send_init(nxt, ("sweep", it, m), phase.msg_bytes)
                     for m in range(phase.msgs_per_stage)]
            recvs = [rank.recv_init(prv, ("sweep", it, m), phase.msg_bytes)
                     for m in range(phase.msgs_per_stage)]
            for _s in range(phase.stages):
                for pr in recvs:
                    yield from pr.start()
                for pr in sends:
                    yield from pr.start()
                for pr in sends + recvs:
                    yield from pr.wait()
            for pr in sends + recvs:
                pr.free()
    elif isinstance(phase, CollectivePhase):
        for c in range(phase.count):
            if phase.kind == "barrier":
                yield from collectives.barrier(rank)
            elif phase.kind == "allreduce":
                yield from collectives.allreduce(rank, phase.nbytes, 1.0)
            elif phase.kind == "bcast":
                yield from collectives.bcast(
                    rank, phase.nbytes, root=0,
                    payload="x" if me == 0 else None)
            elif phase.kind == "alltoallv":
                yield from collectives.alltoallv(
                    rank, [phase.nbytes] * size)
            elif phase.kind == "allgather":
                yield from collectives.allgather(rank, phase.nbytes, me)
            elif phase.kind == "scan":
                yield from collectives.scan(rank, phase.nbytes, me)
    elif isinstance(phase, MemChurn):
        for _ in range(phase.mmaps):
            va = yield from rank.task.syscall("mmap", phase.nbytes)
            yield from rank.task.syscall("munmap", va, phase.nbytes)
    elif isinstance(phase, FileIO):
        fd = yield from rank.task.syscall("open", "/scratch/diag.dat")
        for _ in range(phase.reads):
            yield from rank.task.syscall("read", fd, phase.nbytes)
        yield from rank.task.syscall("close", fd)
    else:  # pragma: no cover - exhaustive over the vocabulary
        raise ReproError(f"unknown phase {phase!r}")


def make_rank_main(spec: AppSpec, iterations: Optional[int] = None):
    """Build the per-rank generator for :meth:`MpiWorld.launch`."""
    spec.validate()
    iters = iterations if iterations is not None else spec.iterations

    def rank_main(rank: MpiRank):
        if spec.uses_cart:
            yield from collectives.cart_create(rank, (rank.size,))
        imb_rng = rank.task.rng
        for it in range(iters):
            compute = spec.compute_seconds
            if spec.imbalance_cv > 0 and imb_rng is not None:
                import math
                sigma = math.sqrt(math.log(1 + spec.imbalance_cv ** 2))
                compute *= float(imb_rng.lognormal(-sigma ** 2 / 2, sigma))
            yield from rank.compute(compute)
            for phase in spec.phases:
                yield from _micro_phase(rank, phase, it)
        return rank.sim.now

    return rank_main


def run_micro(machine, spec: AppSpec, iterations: Optional[int] = None,
              compute_scale: float = 1.0):
    """Run a (usually scaled-down) app through the full DES stack.

    Returns ``(runtime_seconds, aggregated MpiStats)``.
    """
    from ..mpi import MpiWorld
    scaled = spec
    if compute_scale != 1.0:
        from dataclasses import replace
        scaled = replace(spec, compute_seconds=spec.compute_seconds
                         * compute_scale)
    world = MpiWorld.build(machine, scaled.ranks_per_node)
    t0 = machine.sim.now
    world.launch(make_rank_main(scaled, iterations))
    return machine.sim.now - t0, world.aggregate_stats()
