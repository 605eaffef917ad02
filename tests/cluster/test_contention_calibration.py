"""Contention calibration: the macro model's queueing closed form must
track the detailed simulator's measured offload amplification."""

import pytest

from repro.experiments.contention import run_contention


@pytest.fixture(scope="module")
def study():
    return run_contention(rank_counts=(1, 4, 8, 32))


def test_uncontended_latency_is_microseconds(study):
    assert study.measured[1] < 20e-6
    assert study.measured[4] == pytest.approx(study.measured[1], rel=0.05)


def test_amplification_explodes_beyond_os_cpu_count(study):
    """More ranks than OS CPUs: section 4.3's amplification."""
    assert study.amplification(8) > 5
    assert study.amplification(32) > 100


def test_amplification_monotone(study):
    values = [study.measured[n] for n in study.rank_counts]
    assert values == sorted(values)


def test_macro_closed_form_tracks_des(study):
    """Within 2.5x of the detailed simulator across the whole range —
    a closed-form FIFO approximation of an interleaved queue."""
    for n in study.rank_counts:
        ratio = study.predicted[n] / study.measured[n]
        assert 0.4 < ratio < 2.5, (n, ratio)


def test_render(study):
    text = study.render()
    assert "concurrent ranks" in text and "32" in text
