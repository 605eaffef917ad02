"""IMB-MPI1 PingPong: the Figure 4 micro-benchmark.

Two ranks on two nodes bounce messages of increasing size; reported
bandwidth is ``size / (round_trip / 2)``, exactly Intel MPI Benchmarks'
definition.  Runs on the *detailed* simulator (full PSM/driver/NIC stack).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..psm import Endpoint, TagMatcher
from ..units import MiB

#: the paper's Figure 4 x-axis (8B .. 4MB)
DEFAULT_SIZES = tuple(2 ** k for k in range(3, 23))


class PingPong:
    """IMB ping-pong harness over one machine (two spawned ranks)."""

    def __init__(self, machine, repetitions: int = 5, warmup: int = 1):
        if len(machine.nodes) < 2:
            raise ValueError("ping-pong needs two nodes")
        self.machine = machine
        self.reps = repetitions
        self.warmup = warmup

    def run(self, sizes: Sequence[int] = DEFAULT_SIZES) -> Dict[int, float]:
        """Returns {message size: one-way bandwidth in bytes/second}."""
        machine = self.machine
        sim = machine.sim
        t0 = machine.spawn_rank(0, 0, 0)
        t1 = machine.spawn_rank(1, 0, 1)
        ep0 = Endpoint(sim, machine.params, machine.nodes[0].node.hfi, t0,
                       tracer=machine.tracer)
        ep1 = Endpoint(sim, machine.params, machine.nodes[1].node.hfi, t1,
                       tracer=machine.tracer)
        sizes = list(sizes)
        bufsize = max(max(sizes) * 2, 1 * MiB)
        out: Dict[int, float] = {}
        reps, warm = self.reps, self.warmup

        def rank0():
            yield from ep0.open()
            buf = yield from t0.syscall("mmap", bufsize)
            while ep1.addr is None:
                yield from sim.delay(1e-6)
            for size in sizes:
                t_start = None
                for r in range(reps + warm):
                    if r == warm:
                        t_start = sim.now
                    yield from ep0.mq_send(ep1.addr, ("pp", size, r), buf,
                                           size)
                    req = ep0.mq_irecv(TagMatcher(tag=("pp2", size, r)),
                                       (buf, bufsize))
                    yield req.event
                dt = (sim.now - t_start) / reps
                out[size] = size / (dt / 2)

        def rank1():
            yield from ep1.open()
            buf = yield from t1.syscall("mmap", bufsize)
            for size in sizes:
                for r in range(reps + warm):
                    req = ep1.mq_irecv(TagMatcher(tag=("pp", size, r)),
                                       (buf, bufsize))
                    yield req.event
                    yield from ep1.mq_send(ep0.addr, ("pp2", size, r),
                                           buf, size)

        sim.process(rank1())
        done = sim.process(rank0())
        sim.run(until=done)
        return out


class PingPing:
    """IMB PingPing: both ranks send simultaneously — exercises
    bidirectional egress/SDMA-engine concurrency."""

    def __init__(self, machine, repetitions: int = 5, warmup: int = 1):
        if len(machine.nodes) < 2:
            raise ValueError("ping-ping needs two nodes")
        self.machine = machine
        self.reps = repetitions
        self.warmup = warmup

    def run(self, sizes: Sequence[int] = DEFAULT_SIZES) -> Dict[int, float]:
        """Returns {size: per-direction bandwidth in bytes/second}."""
        machine = self.machine
        sim = machine.sim
        tasks = [machine.spawn_rank(i, 0, i) for i in (0, 1)]
        eps = [Endpoint(sim, machine.params, machine.nodes[i].node.hfi,
                        tasks[i], tracer=machine.tracer) for i in (0, 1)]
        sizes = list(sizes)
        bufsize = max(max(sizes) * 2, 1 * MiB)
        out: Dict[int, float] = {}
        reps, warm = self.reps, self.warmup
        timings: Dict[int, list] = {s: [] for s in sizes}

        def body(me: int):
            other = 1 - me
            yield from eps[me].open()
            buf = yield from tasks[me].syscall("mmap", bufsize)
            while eps[other].addr is None:
                yield from sim.delay(1e-6)
            for size in sizes:
                t_start = None
                for r in range(reps + warm):
                    if r == warm:
                        t_start = sim.now
                    req = eps[me].mq_irecv(
                        TagMatcher(tag=("ping", size, r, other)),
                        (buf, bufsize))
                    yield from eps[me].mq_send(
                        eps[other].addr, ("ping", size, r, me), buf, size)
                    yield req.event
                timings[size].append((sim.now - t_start) / reps)

        procs = [sim.process(body(i)) for i in (0, 1)]
        for p in procs:
            sim.run(until=p)
        for size in sizes:
            out[size] = size / max(timings[size])
        return out


class SendRecv:
    """IMB Sendrecv over a ring of ranks: every rank forwards to its right
    neighbor while receiving from its left, one rank per node."""

    def __init__(self, machine, repetitions: int = 5, warmup: int = 1):
        if len(machine.nodes) < 2:
            raise ValueError("sendrecv needs at least two nodes")
        self.machine = machine
        self.reps = repetitions
        self.warmup = warmup

    def run(self, sizes: Sequence[int] = DEFAULT_SIZES) -> Dict[int, float]:
        """Returns {size: per-rank throughput (in+out bytes per second)}."""
        machine = self.machine
        sim = machine.sim
        n = len(machine.nodes)
        tasks = [machine.spawn_rank(i, 0, i) for i in range(n)]
        eps = [Endpoint(sim, machine.params, machine.nodes[i].node.hfi,
                        tasks[i], tracer=machine.tracer) for i in range(n)]
        sizes = list(sizes)
        bufsize = max(max(sizes) * 2, 1 * MiB)
        out: Dict[int, float] = {}
        reps, warm = self.reps, self.warmup
        timings: Dict[int, list] = {s: [] for s in sizes}

        def body(me: int):
            right, left = (me + 1) % n, (me - 1) % n
            yield from eps[me].open()
            buf = yield from tasks[me].syscall("mmap", bufsize)
            while any(ep.addr is None for ep in eps):
                yield from sim.delay(1e-6)
            for size in sizes:
                t_start = None
                for r in range(reps + warm):
                    if r == warm:
                        t_start = sim.now
                    req = eps[me].mq_irecv(
                        TagMatcher(tag=("ring", size, r, left)),
                        (buf, bufsize))
                    yield from eps[me].mq_send(
                        eps[right].addr, ("ring", size, r, me), buf, size)
                    yield req.event
                timings[size].append((sim.now - t_start) / reps)

        procs = [sim.process(body(i)) for i in range(n)]
        for p in procs:
            sim.run(until=p)
        for size in sizes:
            out[size] = 2 * size / max(timings[size])
        return out
