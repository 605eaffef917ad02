"""The chaos sweep: integrity contract, degradation reporting and the
CLI entry point."""

from repro.config import OSConfig
from repro.experiments.chaos import (DEFAULT_RATES, SMOKE_RATES, cmd_chaos,
                                     run_chaos)


def test_smoke_sweep_holds_the_integrity_contract():
    """The acceptance bar for the PicoDriver config: every message lands
    or typed-fails, the fast path demonstrably falls back, and engine
    halts actually happened (we were not testing a calm sea)."""
    result = run_chaos(smoke=True, configs=(OSConfig.MCKERNEL_HFI,))
    assert result.violations == []
    assert [c.rate for c in result.cells] == list(SMOKE_RATES)
    assert all(c.delivered + c.failed_typed == c.messages
               for c in result.cells)
    faulted = [c for c in result.cells if c.rate > 0]
    assert any(c.counters.get("pico.fallbacks", 0) > 0 for c in faulted)
    assert any(c.counters.get("hfi.sdma_halts", 0) > 0 for c in faulted)


def test_zero_rate_cell_never_draws_a_fault():
    result = run_chaos(smoke=True, rates=(0.0,),
                       configs=(OSConfig.LINUX,), n_messages=3)
    cell = result.cells[0]
    assert cell.delivered == 3 and cell.ok
    assert not any(k.startswith("faults.") for k in cell.counters)


def test_sweep_restores_global_fault_config():
    """The ``faults`` slot is clear again afterwards (asserted by the
    suite-wide ``planes_off`` fixture)."""
    run_chaos(smoke=True, rates=(0.01,), configs=(OSConfig.LINUX,),
              n_messages=3)


def test_render_reports_verdict_and_counters():
    result = run_chaos(smoke=True, rates=(0.0,),
                       configs=(OSConfig.LINUX,), n_messages=3)
    text = result.render()
    assert "data integrity" in text
    assert "fallbacks" in text and "goodput" in text
    assert "Linux" in text


def test_default_rates_are_a_sweep():
    assert DEFAULT_RATES[0] == 0.0
    assert list(DEFAULT_RATES) == sorted(DEFAULT_RATES)
    assert len(DEFAULT_RATES) > len(SMOKE_RATES)


def test_cmd_chaos_rejects_unknown_inputs(capsys):
    assert cmd_chaos(["--frobnicate"]) == 2
    assert cmd_chaos(["no-such-workload"]) == 2
    out = capsys.readouterr().out
    assert "usage" in out and "pingpong" in out


def test_parallel_sweep_is_bit_identical_to_serial():
    """The PicoTune shard runner fans the cells across processes; the
    merged sweep must match the serial one cell for cell."""
    kwargs = dict(smoke=True, rates=(0.0, 0.02),
                  configs=(OSConfig.MCKERNEL_HFI,), n_messages=4)
    serial = run_chaos(**kwargs, workers=1)
    parallel = run_chaos(**kwargs, workers=2)
    assert serial.cells == parallel.cells
    assert serial.violations == parallel.violations


def test_cmd_chaos_workers_flag(capsys):
    assert cmd_chaos(["--smoke", "--workers", "nope"]) == 2
    assert "workers" in capsys.readouterr().out
