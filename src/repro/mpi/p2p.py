"""MPI point-to-point operations and requests."""

from __future__ import annotations

from typing import List, Optional

from ..config import PLANES
from ..errors import ReproError
from ..obs.spans import track_of
from ..psm.mq import MqRequest
from ..sim import AllOf, Event


class Request:
    """An MPI request wrapping a PSM MQ request."""

    def __init__(self, mq_request: MqRequest, kind: str):
        self.mq_request = mq_request
        self.kind = kind

    @property
    def event(self) -> Event:
        return self.mq_request.event

    @property
    def done(self) -> bool:
        return self.mq_request.done

    @property
    def payload(self):
        if not self.done:
            raise ReproError("request not complete")
        return self.mq_request.payload

    @property
    def nbytes(self) -> int:
        return self.mq_request.nbytes


class PersistentRequest:
    """MPI persistent communication: ``Send_init``/``Recv_init`` describe
    the transfer once; ``Start`` fires an instance; ``Wait`` completes it;
    ``Request_free`` releases the description (UMT2013's sweep pattern —
    MPI_Start and MPI_Request_free both show in the paper's Table 1)."""

    def __init__(self, rank, kind: str, peer, tag, nbytes: int):
        self.rank = rank
        self.kind = kind            # "send" | "recv"
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.active: Optional[Request] = None
        self.freed = False
        self._instance = 0

    def start(self):
        """Generator: MPI_Start — activate one instance."""
        if self.freed:
            raise ReproError("MPI_Start on a freed persistent request")
        if self.active is not None and not self.active.done:
            raise ReproError("MPI_Start while a previous instance is active")
        t0 = self.rank.sim.now
        inst_tag = ("persist", self.tag, self._instance)
        self._instance += 1
        self.rank.stats.push("Start")   # fold inner Isend into Start
        try:
            if self.kind == "send":
                self.active = yield from self.rank.isend(
                    self.peer, inst_tag, self.nbytes)
            else:
                self.active = self.rank.irecv(self.peer, inst_tag,
                                              self.nbytes)
        finally:
            self.rank.stats.pop()
        self.rank.stats.record("Start", self.rank.sim.now - t0)
        return self.active

    def wait(self):
        """Generator: complete the active instance."""
        if self.active is None:
            raise ReproError("MPI_Wait with no started instance")
        result = yield from wait(self.rank, self.active)
        return result

    def free(self) -> None:
        """MPI_Request_free."""
        if self.freed:
            raise ReproError("double MPI_Request_free")
        self.freed = True
        self.rank.stats.record("Request_free", 2e-7)


def wait(rank, request: Request):
    """Generator: MPI_Wait — where rendezvous progress time surfaces
    (the Table 1 column the paper bolds)."""
    t0 = rank.sim.now
    span = PLANES.trace.begin_span(
        "mpi.wait", track_of(rank.task.kernel), cat="mpi",
        args={"rank": rank.rank, "kind": request.kind}) \
        if PLANES.trace is not None else None
    try:
        yield request.event
    finally:
        if PLANES.trace is not None and span is not None:
            PLANES.trace.end_span(span)
    rank.stats.record("Wait", rank.sim.now - t0)
    return request


def waitall(rank, requests: List[Request]):
    """Generator: MPI_Waitall."""
    t0 = rank.sim.now
    span = PLANES.trace.begin_span(
        "mpi.waitall", track_of(rank.task.kernel), cat="mpi",
        args={"rank": rank.rank, "n": len(requests)}) \
        if PLANES.trace is not None else None
    try:
        yield AllOf(rank.sim, [r.event for r in requests])
    finally:
        if PLANES.trace is not None and span is not None:
            PLANES.trace.end_span(span)
    rank.stats.record("Waitall", rank.sim.now - t0)
    return requests
