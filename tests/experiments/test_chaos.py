"""The chaos sweep: integrity contract, degradation reporting and the
CLI entry point."""

import pytest

from repro.config import OSConfig
from repro.errors import DeviceTimeout, TransferCorrupt
from repro.experiments import build_machine
from repro.experiments.chaos import (DEFAULT_RATES, SMOKE_RATES,
                                     MessageTrain, cmd_chaos, run_chaos)
from repro.psm.mq import MqRequest


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
    """``map_shards`` fans the cells across processes; the merged
    sweep must match the serial one cell for cell."""
    kwargs = dict(smoke=True, rates=(0.0, 0.02),
                  configs=(OSConfig.MCKERNEL_HFI,), n_messages=4)
    serial = run_chaos(**kwargs, workers=1)
    parallel = run_chaos(**kwargs, workers=2)
    assert serial.cells == parallel.cells
    assert serial.violations == parallel.violations


def test_cmd_chaos_workers_flag(capsys):
    assert cmd_chaos(["--smoke", "--workers", "nope"]) == 2
    assert "workers" in capsys.readouterr().out


#: one message per case of the delivery contract: (what the sender saw,
#: or None for a send that never returned; how the receive ended;
#: verdict).  A receive ends "intact", "short" (one byte missing),
#: "foreign" (another message's payload), "pending" (never completed)
#: or with the exception given.
CONTRACT_CASES = [
    ("ok", "intact", "intact"),
    ("DeviceTimeout", "pending", "typed"),
    ("ok", TransferCorrupt("checksum"), "typed"),
    ("ok", "foreign", "delivered corrupt (payload=('tok', 99, 1003), "
                      "nbytes=1003)"),
    ("ok", "short", "delivered corrupt (payload=('tok', 4, 1004), "
                    "nbytes=1003)"),
    ("ok", RuntimeError("boom"), "untyped receive error "
                                 "RuntimeError('boom')"),
    ("ok", "pending", "never delivered and no typed error (sender: ok)"),
    (None, "pending", "never delivered and no typed error "
                      "(sender: hung)"),
]


@pytest.fixture
def judged_train():
    """A built, never-run train over the cases above, its per-message
    records written by hand; message ``i`` is ``1000 + i`` bytes."""
    machine = build_machine(2, OSConfig.LINUX)
    train = MessageTrain(machine, "unit",
                         [1000 + i for i in range(len(CONTRACT_CASES))])
    for i, (sender, receive, _verdict) in enumerate(CONTRACT_CASES):
        size = train.sizes[i]
        if sender is not None:
            train.send_out[i] = sender
        req = MqRequest(machine.sim, "recv")
        req.payload, req.nbytes = ("tok", i, size), size
        if receive == "foreign":
            req.payload = ("tok", 99, size)
        elif receive == "short":
            req.nbytes = size - 1
        if isinstance(receive, BaseException):
            req.event.fail(receive)
        elif receive != "pending":
            req.event.succeed()
        train.recv_reqs[i] = req
    return train


@pytest.mark.parametrize("i", range(len(CONTRACT_CASES)))
def test_outcome_judges_each_contract_case(judged_train, i):
    assert judged_train.outcome(i) == CONTRACT_CASES[i][2]


def test_violations_name_the_message_index_and_size(judged_train):
    assert judged_train.violations("Linux rate=0.01") == [
        f"Linux rate=0.01 msg {i} ({1000 + i}B): {verdict}"
        for i, (_s, _r, verdict) in enumerate(CONTRACT_CASES)
        if verdict not in ("intact", "typed")]
    delivered, typed, _elapsed, _goodput = judged_train.tally(
        0, len(CONTRACT_CASES))
    assert (delivered, typed) == (1, 2)


def test_typed_sender_covers_an_untyped_receive_error(judged_train):
    """A send that failed typed makes the message a typed failure even
    when its receive ended in an untyped error."""
    judged_train.send_out[5] = DeviceTimeout.__name__
    assert judged_train.outcome(5) == "typed"
