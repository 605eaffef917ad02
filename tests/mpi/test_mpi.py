"""MPI layer tests: world init, p2p semantics, collective correctness
(values really flow through the simulated network) and stats accounting."""

import pytest

from repro.config import ALL_CONFIGS, OSConfig
from repro.experiments import build_machine
from repro.mpi import MpiWorld, collectives
from repro.mpi.p2p import wait, waitall
from repro.units import KiB, MiB


def run_world(cfg, n_nodes, ranks_per_node, rank_main, params=None):
    machine = build_machine(n_nodes, cfg, params=params)
    world = MpiWorld.build(machine, ranks_per_node)
    results = world.launch(rank_main)
    return machine, world, results


def test_world_init_assigns_addresses():
    def main(rank):
        return rank.endpoint.addr
        yield  # pragma: no cover

    machine, world, addrs = run_world(OSConfig.LINUX, 2, 2, main)
    assert len(set(addrs)) == 4
    assert world.size == 4


def test_p2p_send_recv_payload():
    def main(rank):
        if rank.rank == 0:
            yield from rank.send(1, "hello", 32 * KiB, payload="the-data")
            return None
        req = yield from rank.recv(0, "hello", 32 * KiB)
        return req.payload

    _, _, results = run_world(OSConfig.LINUX, 2, 1, main)
    assert results[1] == "the-data"


def test_isend_irecv_wait():
    def main(rank):
        if rank.rank == 0:
            reqs = []
            for i in range(4):
                r = yield from rank.isend(1, ("m", i), 8 * KiB, payload=i)
                reqs.append(r)
            yield from waitall(rank, reqs)
            return None
        got = []
        for i in range(4):
            req = rank.irecv(0, ("m", i), 8 * KiB)
            yield from wait(rank, req)
            got.append(req.payload)
        return got

    _, _, results = run_world(OSConfig.LINUX, 2, 1, main)
    assert results[1] == [0, 1, 2, 3]


def test_rendezvous_p2p_across_configs():
    for cfg in ALL_CONFIGS:
        def main(rank):
            if rank.rank == 0:
                yield from rank.send(1, "big", 2 * MiB, payload="big-data")
                return None
            req = yield from rank.recv(0, "big", 2 * MiB)
            return (req.nbytes, req.payload)

        _, _, results = run_world(cfg, 2, 1, main)
        assert results[1] == (2 * MiB, "big-data"), cfg


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_finalize_quiesces_the_progress_workers(cfg):
    """Finalize after a rendezvous receive: the receiver's last deferred
    TID_FREE runs before the endpoint closes its fd, so both workers of
    every rank are idle with no failed job, and still alive."""
    def main(rank):
        if rank.rank == 0:
            yield from rank.send(1, "big", 2 * MiB, payload="big-data")
            return None
        req = yield from rank.recv(0, "big", 2 * MiB)
        return req.payload

    machine, world, results = run_world(cfg, 2, 1, main)
    assert results[1] == "big-data"
    sim = machine.sim
    sim.run()
    for rank in world.ranks:
        for worker in (rank.endpoint.rx, rank.endpoint.tx):
            assert worker.failed == 0, worker.name
            assert worker.idle, worker.name
            done = worker.completed

            def noop():
                yield sim.timeout(0)

            worker.submit(noop())
            sim.run()
            assert worker.completed == done + 1, worker.name
    for node in machine.nodes:
        assert node.node.hfi.tids_in_use == 0


@pytest.mark.parametrize("n_ranks", [2, 3, 4, 7, 8])
def test_allreduce_sums_correctly(n_ranks):
    def main(rank):
        value = rank.rank + 1
        result = yield from collectives.allreduce(rank, 8 * KiB, value)
        return result

    _, _, results = run_world(OSConfig.LINUX, 1, n_ranks, main)
    expected = sum(range(1, n_ranks + 1))
    assert all(r == expected for r in results)


@pytest.mark.parametrize("root", [0, 2])
def test_bcast_delivers_root_value(root):
    def main(rank):
        value = "payload" if rank.rank == root else None
        got = yield from collectives.bcast(rank, 16 * KiB, root=root,
                                           payload=value)
        return got

    _, _, results = run_world(OSConfig.LINUX, 2, 2, main)
    assert all(r == "payload" for r in results)


def test_reduce_to_root():
    def main(rank):
        return (yield from collectives.reduce(rank, 4 * KiB, rank.rank))

    _, _, results = run_world(OSConfig.LINUX, 1, 5, main)
    assert results[0] == sum(range(5))
    assert all(r is None for r in results[1:])


def test_allgather_collects_everyone():
    def main(rank):
        vals = yield from collectives.allgather(rank, 1 * KiB,
                                                f"r{rank.rank}")
        return vals

    _, _, results = run_world(OSConfig.LINUX, 2, 2, main)
    for vals in results:
        assert vals == ["r0", "r1", "r2", "r3"]


def test_alltoallv_routes_payloads():
    def main(rank):
        payloads = [f"{rank.rank}->{d}" for d in range(rank.size)]
        sizes = [1 * KiB * (d + 1) for d in range(rank.size)]
        got = yield from collectives.alltoallv(rank, sizes, payloads)
        return got

    _, _, results = run_world(OSConfig.LINUX, 1, 4, main)
    for me, got in enumerate(results):
        for src in range(4):
            assert got[src] == f"{src}->{me}"


def test_scan_inclusive_prefix():
    def main(rank):
        return (yield from collectives.scan(rank, 1 * KiB, rank.rank + 1))

    _, _, results = run_world(OSConfig.LINUX, 1, 6, main)
    assert results == [sum(range(1, i + 2)) for i in range(6)]


def test_barrier_synchronizes():
    arrivals = {}

    def main(rank):
        # rank 0 arrives late; nobody may leave before it arrives
        if rank.rank == 0:
            yield from rank.compute(1e-3)
        t_enter = rank.sim.now
        yield from collectives.barrier(rank)
        arrivals[rank.rank] = (t_enter, rank.sim.now)
        return None

    _, _, _ = run_world(OSConfig.MCKERNEL, 1, 4, main)
    slowest_entry = max(t for t, _ in arrivals.values())
    assert all(leave >= slowest_entry for _, leave in arrivals.values())


def test_cart_create_coordinates():
    def main(rank):
        return (yield from collectives.cart_create(rank, (2, 2)))

    _, _, results = run_world(OSConfig.LINUX, 1, 4, main)
    assert results == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_cart_create_wrong_dims_rejected():
    def main(rank):
        yield from collectives.cart_create(rank, (3, 2))

    machine = build_machine(1, OSConfig.LINUX)
    world = MpiWorld.build(machine, 4)
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        world.launch(main)


def test_stats_report_collectives_not_internals():
    def main(rank):
        yield from collectives.allreduce(rank, 8 * KiB, 1.0)
        yield from collectives.barrier(rank)
        return None

    _, world, _ = run_world(OSConfig.LINUX, 1, 4, main)
    stats = world.aggregate_stats()
    assert stats.time_in("Allreduce") > 0
    assert stats.time_in("Barrier") > 0
    assert stats.time_in("Isend") == 0      # suppressed inside collectives
    assert stats.time_in("Init") > 0
    assert stats.total_runtime > 0


def test_wait_time_dominates_for_delayed_sender():
    def main(rank):
        if rank.rank == 0:
            yield from rank.compute(5e-3)
            yield from rank.send(1, "late", 1 * KiB)
            return None
        req = rank.irecv(0, "late", 1 * KiB)
        yield from wait(rank, req)
        return None

    _, world, _ = run_world(OSConfig.MCKERNEL, 2, 1, main)
    stats = world.aggregate_stats()
    assert stats.time_in("Wait") >= 5e-3 * 0.9


def test_mpi_init_costs_ordered_by_config():
    """Init(HFI) > Init(McKernel) > Init(Linux) — the Table 1 pattern."""
    init_times = {}
    for cfg in ALL_CONFIGS:
        def main(rank):
            return None
            yield  # pragma: no cover

        _, world, _ = run_world(cfg, 1, 4, main)
        init_times[cfg] = world.aggregate_stats().time_in("Init")
    assert init_times[OSConfig.MCKERNEL] > init_times[OSConfig.LINUX]
    assert (init_times[OSConfig.MCKERNEL_HFI]
            > init_times[OSConfig.MCKERNEL])
