"""Property-based robustness of the macro simulator: arbitrary (valid)
application signatures must simulate without error and with consistent
accounting on every configuration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import (AppSpec, CollectivePhase, FileIO, HaloExchange,
                             MemChurn, SweepPhase)
from repro.cluster import simulate_app
from repro.config import ALL_CONFIGS
from repro.units import KiB, MiB

halo_strategy = st.builds(
    HaloExchange,
    neighbors=st.integers(1, 8),
    msg_bytes=st.sampled_from([4 * KiB, 96 * KiB, 320 * KiB, 2 * MiB]),
    rounds=st.integers(1, 2))
sweep_strategy = st.builds(
    SweepPhase,
    stages=st.integers(1, 12),
    msg_bytes=st.sampled_from([16 * KiB, 256 * KiB, 1 * MiB]),
    active_fraction=st.sampled_from([0.25, 0.5, 1.0]))
memchurn_strategy = st.builds(MemChurn, mmaps=st.integers(1, 4),
                              nbytes=st.sampled_from([64 * KiB, 2 * MiB]))
fileio_strategy = st.builds(FileIO, reads=st.integers(1, 3))


def collective_strategy(count=st.integers(1, 2), scope=st.just(0)):
    """Collectives of every kind, ``count`` and ``scope`` drawn from the
    given strategies (world scope by default)."""
    return st.builds(
        CollectivePhase,
        kind=st.sampled_from(["barrier", "allreduce", "bcast", "alltoallv",
                              "allgather", "scan"]),
        nbytes=st.sampled_from([8, 1 * KiB, 128 * KiB, 512 * KiB]),
        count=count, scope=scope)


def spec_strategy_over(phases, imbalance_cv=st.floats(0.0, 0.2)):
    """Application signatures whose phase tuple ``phases`` draws."""
    return st.builds(
        AppSpec,
        name=st.just("fuzz"),
        ranks_per_node=st.sampled_from([8, 32, 64]),
        threads_per_rank=st.just(2),
        iterations=st.integers(1, 3),
        compute_seconds=st.floats(1e-4, 50e-3),
        phases=phases,
        imbalance_cv=imbalance_cv,
        lwk_compute_factor=st.floats(0.8, 1.0),
    )


phase_strategy = st.one_of(halo_strategy, sweep_strategy,
                           collective_strategy(), memchurn_strategy,
                           fileio_strategy)

spec_strategy = spec_strategy_over(st.tuples(phase_strategy, phase_strategy))


@given(spec=spec_strategy, n_nodes=st.sampled_from([1, 2, 16]))
@settings(max_examples=40, deadline=None)
def test_any_valid_spec_simulates_consistently(spec, n_nodes):
    for config in ALL_CONFIGS:
        result = simulate_app(spec, n_nodes, config)
        assert result.runtime > 0
        assert 0 <= result.init_seconds <= result.runtime
        assert result.loop_runtime > 0
        assert result.n_ranks == spec.ranks_per_node * n_nodes
        assert all(t >= 0 for t in result.mpi_time.values())
        assert all(t >= 0 for t in result.syscall_time.values())
        assert result.total_mpi_time <= result.total_runtime * 1.001
        for name, count in result.syscall_count.items():
            assert count >= 0


comm_phase_strategy = st.one_of(
    st.builds(HaloExchange,
              neighbors=st.integers(1, 8),
              msg_bytes=st.sampled_from([4 * KiB, 96 * KiB, 320 * KiB,
                                         2 * MiB])),
    st.builds(SweepPhase,
              stages=st.integers(1, 12),
              msg_bytes=st.sampled_from([16 * KiB, 256 * KiB, 1 * MiB])),
    st.builds(CollectivePhase,
              kind=st.sampled_from(["barrier", "allreduce", "bcast",
                                    "alltoallv", "allgather", "scan"]),
              nbytes=st.sampled_from([8, 128 * KiB, 512 * KiB])),
)

comm_spec_strategy = st.builds(
    AppSpec,
    name=st.just("fuzz-comm"),
    ranks_per_node=st.sampled_from([8, 32, 64]),
    threads_per_rank=st.just(2),
    iterations=st.integers(1, 3),
    compute_seconds=st.floats(1e-3, 50e-3),
    phases=st.tuples(comm_phase_strategy, comm_phase_strategy),
    imbalance_cv=st.floats(0.0, 0.2),
    lwk_compute_factor=st.floats(0.9, 1.0),
)


@given(spec=comm_spec_strategy)
@settings(max_examples=15, deadline=None)
def test_single_node_multikernel_never_collapses(spec):
    """The paper's single-node parity claim as a property: with no
    off-node traffic all communication is shared memory, so there is no
    driver offload storm and the multi-kernel stays near Linux.  (Holds
    for communication phases; I/O-only micro-specs legitimately pay
    non-driver offloads and are out of scope.)"""
    from repro.config import OSConfig
    linux = simulate_app(spec, 1, OSConfig.LINUX)
    mck = simulate_app(spec, 1, OSConfig.MCKERNEL)
    ratio = mck.loop_runtime / linux.loop_runtime
    assert ratio < 1.6
