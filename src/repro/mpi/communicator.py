"""MPI world construction and per-rank handles.

``MpiWorld.build`` plays the role of the job launcher plus ``MPI_Init``:
it spawns one task per rank on the machine's application kernel, opens a
PSM endpoint for each (device open/ioctl/mmap — *offloaded* on McKernel,
plus the PicoDriver's extra per-process setup when registered), exchanges
endpoint addresses out of band, and synchronizes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import PLANES
from ..errors import ReproError
from ..obs.spans import track_of
from ..psm import Endpoint, TagMatcher
from ..psm.mq import ANY
from ..sim import AllOf
from ..units import MiB
from .p2p import Request
from .stats import MpiStats

#: scratch buffer each rank maps at init for message data
SCRATCH_BYTES = 24 * MiB


class MpiRank:
    """One MPI rank: task + endpoint + stats + collective sequencing."""

    def __init__(self, world: "MpiWorld", rank: int, task, endpoint: Endpoint):
        self.world = world
        self.rank = rank
        self.task = task
        self.endpoint = endpoint
        self.sim = world.sim
        self.stats = MpiStats()
        self.scratch: Optional[int] = None
        self._coll_seq: Dict[str, int] = {}
        self._started_at = 0.0

    @property
    def size(self) -> int:
        return self.world.size

    def addr_of(self, rank: int):
        """PSM endpoint address of another rank."""
        return self.world.address(rank)

    def next_seq(self, op: str) -> int:
        """Per-collective sequence number (identical across ranks because
        collectives are called in the same order everywhere)."""
        seq = self._coll_seq.get(op, 0)
        self._coll_seq[op] = seq + 1
        return seq

    # -- init ------------------------------------------------------------

    def init(self):
        """Generator: this rank's share of MPI_Init."""
        t0 = self.sim.now
        self._started_at = t0
        yield from self.endpoint.open()
        self.world._register(self.rank, self.endpoint.addr)
        self.scratch = yield from self.task.syscall("mmap", SCRATCH_BYTES)
        # wait for every rank to have registered (out-of-band PMI barrier)
        yield self.world._all_registered(self.sim)
        self.stats.record("Init", self.sim.now - t0)

    def finalize(self):
        """Generator: close the endpoint, account total runtime."""
        yield from self.endpoint.close()
        self.stats.add_runtime(self.sim.now - self._started_at)

    # -- point to point ---------------------------------------------------------

    def isend(self, dest: int, tag, nbytes: int, payload=None):
        """Generator: MPI_Isend -> Request."""
        t0 = self.sim.now
        span = PLANES.trace.begin_span(
            "mpi.isend", track_of(self.task.kernel), cat="mpi",
            args={"rank": self.rank, "dest": dest, "nbytes": nbytes}) \
            if PLANES.trace is not None else None
        try:
            mq_req = yield from self.endpoint.mq_isend(
                self.addr_of(dest), tag, self.scratch, nbytes, payload)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.stats.record("Isend", self.sim.now - t0)
        return Request(mq_req, "send")

    def irecv(self, source, tag, max_bytes: int) -> Request:
        """MPI_Irecv (non-blocking post; no syscalls in the caller)."""
        matcher = TagMatcher(
            source=self.addr_of(source) if source is not None else ANY,
            tag=tag)
        mq_req = self.endpoint.mq_irecv(matcher, (self.scratch, max_bytes))
        return Request(mq_req, "recv")

    def send(self, dest: int, tag, nbytes: int, payload=None):
        """Generator: blocking MPI_Send."""
        t0 = self.sim.now
        span = PLANES.trace.begin_span(
            "mpi.send", track_of(self.task.kernel), cat="mpi",
            args={"rank": self.rank, "dest": dest, "nbytes": nbytes}) \
            if PLANES.trace is not None else None
        try:
            mq_req = yield from self.endpoint.mq_send(
                self.addr_of(dest), tag, self.scratch, nbytes, payload)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.stats.record("Send", self.sim.now - t0)
        return Request(mq_req, "send")

    def recv(self, source, tag, max_bytes: int):
        """Generator: blocking MPI_Recv."""
        t0 = self.sim.now
        span = PLANES.trace.begin_span(
            "mpi.recv", track_of(self.task.kernel), cat="mpi",
            args={"rank": self.rank, "max_bytes": max_bytes}) \
            if PLANES.trace is not None else None
        try:
            req = self.irecv(source, tag, max_bytes)
            yield req.event
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.stats.record("Recv", self.sim.now - t0)
        return req

    def send_init(self, dest: int, tag, nbytes: int):
        """MPI_Send_init: describe a persistent send channel."""
        from .p2p import PersistentRequest
        return PersistentRequest(self, "send", dest, tag, nbytes)

    def recv_init(self, source, tag, nbytes: int):
        """MPI_Recv_init: describe a persistent receive channel."""
        from .p2p import PersistentRequest
        return PersistentRequest(self, "recv", source, tag, nbytes)

    def compute(self, seconds: float):
        """Generator: application computation between MPI calls."""
        return self.task.compute(seconds)


class MpiWorld:
    """All ranks of one job on one machine."""

    def __init__(self, machine):
        self.machine = machine
        self.sim = machine.sim
        self.ranks: List[MpiRank] = []
        self._addresses: Dict[int, object] = {}
        self._registered_evt = None

    @property
    def size(self) -> int:
        return len(self.ranks)

    @classmethod
    def build(cls, machine, ranks_per_node: int) -> "MpiWorld":
        world = cls(machine)
        n_nodes = len(machine.nodes)
        for node_idx in range(n_nodes):
            for local in range(ranks_per_node):
                global_rank = node_idx * ranks_per_node + local
                task = machine.spawn_rank(node_idx, local, global_rank)
                ep = Endpoint(machine.sim, machine.params,
                              machine.nodes[node_idx].node.hfi, task,
                              tracer=machine.tracer)
                world.ranks.append(MpiRank(world, global_rank, task, ep))
        return world

    def address(self, rank: int):
        """Endpoint address of ``rank`` (after its init)."""
        try:
            return self._addresses[rank]
        except KeyError:
            raise ReproError(f"rank {rank} not initialized yet")

    def _register(self, rank: int, addr) -> None:
        self._addresses[rank] = addr
        if (self._registered_evt is not None
                and not self._registered_evt.triggered
                and len(self._addresses) == self.size):
            self._registered_evt.succeed()

    def _all_registered(self, sim):
        if self._registered_evt is None:
            self._registered_evt = sim.event()
        if (not self._registered_evt.triggered
                and len(self._addresses) == self.size):
            self._registered_evt.succeed()
        return self._registered_evt

    # -- running -------------------------------------------------------------

    def launch(self, rank_main: Callable) -> List:
        """Run ``rank_main(rank)`` (a generator function) on every rank:
        init -> body -> finalize.  Returns each rank's body result."""
        procs = []

        def wrapper(rank: MpiRank):
            yield from rank.init()
            result = yield from rank_main(rank)
            yield from rank.finalize()
            return result

        for rank in self.ranks:
            procs.append(self.sim.process(wrapper(rank)))
        done = self.sim.run(until=AllOf(self.sim, procs))
        return [procs[i].value for i in range(len(procs))]

    def aggregate_stats(self) -> MpiStats:
        """Job-wide profile: per-call time summed over all ranks."""
        total = MpiStats()
        for rank in self.ranks:
            total.merge(rank.stats)
        return total
