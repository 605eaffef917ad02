"""Tests for the foundational helpers: units, config, params, errors."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.config import ALL_CONFIGS, PLANES, OSConfig, planes
from repro.errors import PageFault
from repro.params import default_params


# --- units -------------------------------------------------------------------

def test_size_constants():
    assert units.KiB == 1024
    assert units.MiB == 1024 ** 2
    assert units.PAGE_SIZE == 4096
    assert units.LARGE_PAGE_SIZE == 2 * units.MiB


def test_pages_for():
    assert units.pages_for(0) == 0
    assert units.pages_for(1) == 1
    assert units.pages_for(4096) == 1
    assert units.pages_for(4097) == 2
    with pytest.raises(ValueError):
        units.pages_for(-1)


def test_alignment_helpers():
    assert units.align_down(4097, 4096) == 4096
    assert units.align_up(4097, 4096) == 8192
    assert units.align_up(8192, 4096) == 8192


@given(value=st.integers(0, 1 << 48), align=st.sampled_from([8, 4096, 1 << 21]))
def test_alignment_properties(value, align):
    down = units.align_down(value, align)
    up = units.align_up(value, align)
    assert down % align == 0 and up % align == 0
    assert down <= value <= up
    assert up - down in (0, align)


def test_fmt_size():
    assert units.fmt_size(8) == "8B"
    assert units.fmt_size(64 * units.KiB) == "64KB"
    assert units.fmt_size(4 * units.MiB) == "4MB"
    assert units.fmt_size(2 * units.GiB) == "2GB"


def test_fmt_time():
    assert units.fmt_time(2.0) == "2s"
    assert units.fmt_time(1.5e-3) == "1.5ms"
    assert units.fmt_time(3.2e-6) == "3.2us"
    assert units.fmt_time(5e-9) == "5ns"


def test_fmt_bandwidth():
    assert units.fmt_bandwidth(12.3e9) == "12300.0MB/s"


# --- config --------------------------------------------------------------------

def test_three_configurations():
    assert len(ALL_CONFIGS) == 3
    assert OSConfig.LINUX.label == "Linux"
    assert OSConfig.MCKERNEL_HFI.label == "McKernel+HFI1"


def test_config_properties():
    assert not OSConfig.LINUX.is_multikernel
    assert OSConfig.MCKERNEL.is_multikernel
    assert not OSConfig.MCKERNEL.has_picodriver
    assert OSConfig.MCKERNEL_HFI.has_picodriver
    assert OSConfig.LINUX.noisy_app_cores
    assert not OSConfig.MCKERNEL_HFI.noisy_app_cores


# --- the opt-in plane registry ---------------------------------------------------

def test_planes_nested_block_restores_the_outer_value():
    outer, inner = object(), object()
    with planes(trace=outer, guard=None):
        assert PLANES.trace is outer
        with planes(trace=inner):
            assert PLANES.trace is inner
        assert PLANES.trace is outer
    assert PLANES.trace is None


def test_planes_restore_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with planes(faults="plan", ksan=[]):
            assert PLANES.faults == "plan" and PLANES.ksan == []
            raise RuntimeError("boom")
    assert PLANES.faults is None and PLANES.ksan is None


def test_planes_unknown_slot_raises_before_setting_anything():
    with pytest.raises(TypeError, match="fault"):
        with planes(guard="policy", fault="typo"):
            pass  # pragma: no cover - never entered
    assert PLANES.guard is None


def test_planes_are_seen_by_modules_that_imported_them():
    """``planes`` mutates the one registry in place, so a module that
    imported ``PLANES`` at load time reads the current slots."""
    from repro.hw import fabric
    collector = object()
    assert fabric.PLANES is PLANES
    with planes(trace=collector):
        assert fabric.PLANES.trace is collector
    assert fabric.PLANES.trace is None


# --- params ---------------------------------------------------------------------

def test_default_params_deterministic_seed():
    assert default_params().seed == default_params().seed


def test_params_are_frozen():
    params = default_params()
    with pytest.raises(Exception):
        params.nic.link_bandwidth = 1.0


def test_with_overrides_replaces_sections():
    from dataclasses import replace
    params = default_params()
    tuned = params.with_overrides(
        nic=replace(params.nic, sdma_engines=8))
    assert tuned.nic.sdma_engines == 8
    assert params.nic.sdma_engines == 16        # original untouched
    assert tuned.syscall is params.syscall      # other sections shared


def test_paper_constants():
    """The constants the paper states explicitly."""
    p = default_params()
    assert p.nic.pio_threshold == 64 * units.KiB    # section 2.2.1
    assert p.nic.sdma_engines == 16                 # section 2.2.1
    assert p.nic.sdma_max_request == 10 * units.KiB  # section 3.4
    assert p.nic.linux_max_request == units.PAGE_SIZE  # section 3.4
    assert p.node.app_cores == 64 and p.node.os_cores == 4  # section 4.1
    assert p.node.total_cores == 68                 # KNL 7250
    assert p.node.numa_domains == 8                 # SNC-4 flat


def test_ikc_round_trip_is_sum_of_parts():
    ikc = default_params().ikc
    assert ikc.round_trip == pytest.approx(
        ikc.request_cost + ikc.ipi_cost + ikc.dispatch_cost
        + ikc.response_cost)


def test_noise_mean_fraction():
    noise = default_params().noise
    expected = (noise.tick_rate_hz * noise.tick_cost
                + noise.burst_rate_hz * noise.burst_log_median
                * math.exp(noise.burst_log_sigma ** 2 / 2))
    assert noise.mean_fraction == pytest.approx(expected)


# --- errors ----------------------------------------------------------------------

def test_pagefault_message():
    exc = PageFault("mckernel", 0xFFFF_8800_0000_1234, "driver pointer")
    assert "mckernel" in str(exc)
    assert "0xffff880000001234" in str(exc)
    assert "driver pointer" in str(exc)
    assert exc.addr == 0xFFFF_8800_0000_1234
