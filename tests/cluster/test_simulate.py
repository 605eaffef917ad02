"""Macro-simulator behaviour tests: input validation, determinism, and
the paper's shapes at the points, apps and bands no row of
``repro.experiments.report.CLAIMS`` checks (each figure's default runs
are the claims table's; ``tests/experiments/test_claims.py`` holds
them)."""

import pytest

from repro.apps import ALL_APPS, HACC, LAMMPS, NEKBONE, QBOX, UMT2013
from repro.apps.base import AppSpec, CollectivePhase
from repro.cluster import simulate_app
from repro.config import ALL_CONFIGS, OSConfig
from repro.errors import ReproError
from repro.units import KiB


def rel(spec, n_nodes, config):
    linux = simulate_app(spec, n_nodes, OSConfig.LINUX)
    other = simulate_app(spec, n_nodes, config)
    return other.figure_of_merit / linux.figure_of_merit


def test_min_nodes_enforced():
    with pytest.raises(ValueError):
        simulate_app(QBOX, 2, OSConfig.LINUX)


@pytest.mark.parametrize("iterations", [0, -1])
def test_iterations_below_one_rejected(iterations):
    """No solver loop means no figure of merit (it would divide by a
    zero loop runtime)."""
    with pytest.raises(ValueError, match="HACC"):
        simulate_app(HACC, 4, OSConfig.LINUX, iterations=iterations)


def _transpose_app(scope):
    return AppSpec(name="transpose", ranks_per_node=32, threads_per_rank=4,
                   iterations=2, compute_seconds=1e-3,
                   phases=(CollectivePhase("alltoallv", nbytes=24 * KiB,
                                           scope=scope),))


def test_scope_wider_than_the_job_rejected():
    """A 64-rank sub-communicator does not fit one 32-rank node; it
    would model 63 rounds with half the traffic off-node."""
    with pytest.raises(ValueError, match="transpose"):
        simulate_app(_transpose_app(64), 1, OSConfig.MCKERNEL)
    assert simulate_app(_transpose_app(64), 2, OSConfig.MCKERNEL).runtime > 0


def test_negative_scope_rejected():
    """A negative scope would run a collective that costs nothing."""
    with pytest.raises(ReproError, match="transpose"):
        _transpose_app(-5).validate()
    with pytest.raises(ReproError, match="transpose"):
        simulate_app(_transpose_app(-5), 1, OSConfig.LINUX)


def test_result_bookkeeping():
    r = simulate_app(UMT2013, 2, OSConfig.LINUX)
    assert r.n_ranks == 64
    assert r.runtime > r.init_seconds > 0
    assert r.loop_runtime == pytest.approx(r.runtime - r.init_seconds)
    assert r.total_runtime == pytest.approx(r.runtime * 64)
    assert r.total_mpi_time > 0
    assert sum(r.syscall_shares().values()) == pytest.approx(1.0)


def test_deterministic_given_seed():
    a = simulate_app(HACC, 4, OSConfig.LINUX)
    b = simulate_app(HACC, 4, OSConfig.LINUX)
    assert a.runtime == b.runtime
    assert a.mpi_time == b.mpi_time


# ---- Figure 5: no regression on LAMMPS / Nekbone -------------------------

def test_lammps_parity_all_configs():
    for n in (1, 8, 64):
        for cfg in (OSConfig.MCKERNEL, OSConfig.MCKERNEL_HFI):
            assert 0.95 < rel(LAMMPS, n, cfg) < 1.07, (n, cfg)


def test_nekbone_small_mckernel_win():
    assert rel(NEKBONE, 64, OSConfig.MCKERNEL) > 1.0
    assert rel(NEKBONE, 64, OSConfig.MCKERNEL_HFI) > 1.0


# ---- Figure 6a: the UMT2013 collapse --------------------------------------

def test_umt_collapse_worsens_with_scale():
    assert (rel(UMT2013, 64, OSConfig.MCKERNEL)
            < rel(UMT2013, 2, OSConfig.MCKERNEL))


# ---- Figure 6b: HACC ---------------------------------------------------------

def test_hacc_mckernel_around_70_percent():
    values = [rel(HACC, n, OSConfig.MCKERNEL) for n in (2, 8, 32, 128)]
    avg = sum(values) / len(values)
    assert 0.60 < avg < 0.85          # paper: 71% on average


# ---- Figure 7: QBOX -----------------------------------------------------------

def test_qbox_hfi_gains_grow_with_scale():
    small = rel(QBOX, 8, OSConfig.MCKERNEL_HFI)
    large = rel(QBOX, 256, OSConfig.MCKERNEL_HFI)
    assert large > small
    assert large > 1.10               # paper: up to +30%


# ---- Table 1 shapes ------------------------------------------------------------

@pytest.fixture(scope="module")
def profiles():
    out = {}
    for app in ("UMT2013", "HACC", "QBOX"):
        for cfg in ALL_CONFIGS:
            out[(app, cfg)] = simulate_app(ALL_APPS[app], 8, cfg)
    return out


def test_table1_mckernel_wait_explodes(profiles):
    """UMT/HACC: McKernel spends ~an order of magnitude more in Wait."""
    for app in ("UMT2013", "HACC"):
        wait_l = profiles[(app, OSConfig.LINUX)].mpi_time["Wait"]
        wait_m = profiles[(app, OSConfig.MCKERNEL)].mpi_time["Wait"]
        assert wait_m > 4 * wait_l, app


def test_table1_hfi_wait_below_linux(profiles):
    for app in ("UMT2013", "HACC"):
        wait_l = profiles[(app, OSConfig.LINUX)].mpi_time["Wait"]
        wait_h = profiles[(app, OSConfig.MCKERNEL_HFI)].mpi_time["Wait"]
        assert wait_h < wait_l, app


def test_table1_init_ordering(profiles):
    """Init(HFI) > Init(McKernel) > Init(Linux) for every app."""
    for app in ("UMT2013", "HACC", "QBOX"):
        i_l = profiles[(app, OSConfig.LINUX)].mpi_time["Init"]
        i_m = profiles[(app, OSConfig.MCKERNEL)].mpi_time["Init"]
        i_h = profiles[(app, OSConfig.MCKERNEL_HFI)].mpi_time["Init"]
        assert i_h > i_m > i_l, app


def test_table1_hacc_cart_create(profiles):
    """Linux's top HACC cost is Cart_create, ~3x the multi-kernels'."""
    linux = profiles[("HACC", OSConfig.LINUX)]
    assert linux.top_calls(1)[0].call == "Cart_create"
    cart_l = linux.mpi_time["Cart_create"]
    cart_m = profiles[("HACC", OSConfig.MCKERNEL)].mpi_time["Cart_create"]
    assert 2.0 < cart_l / cart_m < 4.0


def test_table1_mpi_fraction_shapes(profiles):
    """UMT: MPI is a modest share of Linux runtime but dominates the
    original McKernel's (paper: ~19% vs ~80%)."""
    linux = profiles[("UMT2013", OSConfig.LINUX)]
    mck = profiles[("UMT2013", OSConfig.MCKERNEL)]
    frac_l = linux.total_mpi_time / linux.total_runtime
    frac_m = mck.total_mpi_time / mck.total_runtime
    assert frac_l < 0.45
    assert frac_m > 0.60
