"""Tests of the experiment harnesses: structure, rendering and the
scaling sweep.  The paper's shape claims are rows of ``report.CLAIMS``,
asserted by ``test_claims.py``."""

import pytest

from repro.config import ALL_CONFIGS, OSConfig
from repro.experiments import (run_fig4, run_fig7, run_scaling, run_sloc,
                               run_table1)
from repro.experiments.fig4 import Fig4Result
from repro.units import KiB, MiB

FIG4_SIZES = (8 * KiB, 64 * KiB, 1 * MiB, 4 * MiB)


@pytest.fixture(scope="module")
def fig4() -> Fig4Result:
    return run_fig4(sizes=FIG4_SIZES, repetitions=3)


def test_fig4_has_all_series(fig4):
    assert set(fig4.series) == set(ALL_CONFIGS)
    for config in ALL_CONFIGS:
        assert set(fig4.series[config]) == set(FIG4_SIZES)
        assert all(v > 0 for v in fig4.series[config].values())


def test_fig4_bandwidth_monotone_in_size(fig4):
    for config in ALL_CONFIGS:
        series = [fig4.series[config][s] for s in FIG4_SIZES]
        assert series == sorted(series)


def test_fig4_render(fig4):
    text = fig4.render()
    assert "Figure 4" in text and "4MB" in text and "McKernel+HFI1" in text


# --- scaling harness ----------------------------------------------------------

def test_scaling_skips_counts_below_min_nodes():
    res = run_fig7(node_counts=(1, 2, 4, 8), iterations=2)
    assert res.node_counts == (4, 8)


def test_scaling_render_contains_series():
    from repro.apps import LAMMPS
    res = run_scaling(LAMMPS, node_counts=(1, 2), iterations=2)
    text = res.render()
    assert "LAMMPS" in text and "Linux" in text
    assert len(res.series(OSConfig.MCKERNEL)) == 2
    assert res.relative[OSConfig.LINUX][1] == pytest.approx(1.0)


# --- table 1 -------------------------------------------------------------------

@pytest.fixture(scope="module")
def table1():
    return run_table1(iterations=3)


def test_table1_covers_apps_and_configs(table1):
    for app in ("UMT2013", "HACC", "QBOX"):
        for config in ALL_CONFIGS:
            rows = table1.top(app, config)
            assert 1 <= len(rows) <= 5
            assert rows[0].time >= rows[-1].time


def test_table1_render(table1):
    text = table1.render()
    assert "UMT2013" in text and "Cart_create" in text
    assert "% MPI" in text


# --- porting effort ----------------------------------------------------------------------

def test_sloc_inventory():
    res = run_sloc()
    assert res.pico_sloc > 0
    assert "Porting effort" in res.render()
