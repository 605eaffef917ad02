"""Tests of the ``chaos --storage`` campaign: the write train's verdict,
the sweep's intact-or-typed contract, the recovery drill's
eviction/readmit/goodput oracles and phase spans, and the report
rendering."""

import tracemalloc

import pytest

from repro.config import ALL_CONFIGS, OSConfig
from repro.experiments import build_machine, storage
from repro.experiments.chaos import RECOVERY_BAR, cmd_chaos
from repro.experiments.storage import (DRILL_SMOKE_PHASES, SMOKE_RATES,
                                       STORAGE_SETTLE, WRITE_STRIDE,
                                       WriteTrain, run_storage)
from repro.units import MiB


@pytest.fixture(scope="module")
def result():
    """One full smoke campaign over every OS configuration."""
    return run_storage(smoke=True)


def test_campaign_has_no_contract_violations(result):
    assert result.violations == []


def test_sweep_covers_every_config_and_rate(result):
    cells = {(c.os_config, c.rate) for c in result.cells}
    assert cells == {(cfg, rate) for cfg in ALL_CONFIGS
                     for rate in SMOKE_RATES}


def test_zero_rate_cells_ack_everything(result):
    for cell in result.cells:
        if cell.rate == 0.0:
            assert cell.acked == cell.writes
            assert cell.failed_typed == 0
            assert cell.counters.get("pxd.evictions", 0) == 0


def test_faulted_cells_resolve_every_write(result):
    for cell in result.cells:
        assert cell.acked + cell.failed_typed == cell.writes
        assert cell.goodput > 0


def test_fast_path_carries_the_mckernel_hfi_cells(result):
    hfi = [c for c in result.cells
           if c.os_config is OSConfig.MCKERNEL_HFI]
    assert hfi
    for cell in hfi:
        assert cell.counters.get("pico.pxd_writes", 0) > 0
    linux = [c for c in result.cells if c.os_config is OSConfig.LINUX]
    for cell in linux:
        assert cell.counters.get("pico.pxd_writes", 0) == 0


def test_drills_evict_readmit_and_recover(result):
    assert {d.os_config for d in result.drills} == set(ALL_CONFIGS)
    for drill in result.drills:
        assert drill.evictions >= 1
        assert drill.readmits >= 1
        assert drill.recovery_ratio >= RECOVERY_BAR
        assert [p.name for p in drill.phases] \
            == [name for name, _count in DRILL_SMOKE_PHASES]
        assert drill.phase("baseline").typed == 0


def test_render_reports_the_verdict(result):
    text = result.render()
    assert "storage contract" in text
    assert "recovery drills" in text
    for cfg in ALL_CONFIGS:
        assert cfg.label in text


def test_cmd_chaos_storage_smoke_exits_zero(capsys):
    rc = cmd_chaos(["--storage", "--smoke"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "storage contract" in out


#: one write per case of the storage contract: (what the write saw, or
#: None for a write that never returned; what its read-back returned:
#: "payload", "zeros" (a torn read), a typed error's name, or None for a
#: read-back that never returned; verdict)
WRITE_CASES = [
    ("ok", "payload", "acked"),
    ("ok", "MediaError", "acked-read-typed"),
    ("MediaError", None, "typed"),
    ("ok", "zeros", "torn read-back: acked payload not returned, "
                    "no typed error"),
    ("ok", None, "acked, but its read-back never returned"),
    (None, None, "never resolved: no ack and no typed error"),
]


@pytest.fixture
def judged_writes():
    """A built, never-run train over the cases above, its per-write
    records written by hand; write ``i`` starts at ``10 * i`` and
    returns at ``10 * i + 4`` sim seconds."""
    machine = build_machine(1, OSConfig.LINUX,
                            params=storage._storage_params())
    train = WriteTrain(machine, len(WRITE_CASES))
    for i, (written, read, _verdict) in enumerate(WRITE_CASES):
        train.sent_at[i], train.returned_at[i] = 10.0 * i, 10.0 * i + 4
        if written is not None:
            train.write_out[i] = written
        if read == "payload":
            train.read_out[i] = train.payload(i)
        elif read == "zeros":
            train.read_out[i] = bytes(train.sizes[i])
        elif read is not None:
            train.read_out[i] = read
    return train


@pytest.mark.parametrize("i", range(len(WRITE_CASES)))
def test_write_outcome_judges_each_contract_case(judged_writes, i):
    assert judged_writes.outcome(i) == WRITE_CASES[i][2]


def test_write_violations_acked_and_tally(judged_writes):
    train = judged_writes
    size = train.sizes[0]
    assert train.violations("Linux drill") == [
        f"Linux drill write {i} ({size}B): {verdict}"
        for i, (_w, _r, verdict) in enumerate(WRITE_CASES)
        if verdict not in ("acked", "acked-read-typed", "typed")]
    # the media audit sees every acked write, whatever its read-back did
    assert sorted(train.acked) == [0, 1, 3, 4]
    assert train.acked[3] == (3 * WRITE_STRIDE, train.payload(3))
    carried, typed, elapsed, goodput = train.tally(0, len(WRITE_CASES))
    assert (carried, typed, elapsed) == (2, 1, 54.0)
    assert goodput == 2 * size / 54.0
    assert train.tally(2, 3) == (0, 1, 4.0, 0.0)


def test_replica_memory_follows_the_sectors_written():
    """A replica's store holds only the sectors written, so a 3-replica
    machine and a 40-write train (80 sectors per replica) hold well
    under the 2 MiB that one replica's capacity would take."""
    def build_and_run():
        machine = build_machine(1, OSConfig.LINUX,
                                params=storage._storage_params())
        train = WriteTrain(machine, 40)
        machine.sim.run()
        return machine, train

    build_and_run()  # the per-process caches: debug info per version
    tracemalloc.start()
    try:
        machine, train = build_and_run()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert machine.params.blk.sectors * machine.params.blk.sector_size \
        == 2 * MiB
    assert [train.outcome(i) for i in range(40)] == ["acked"] * 40
    assert held < MiB


def test_drill_phase_spans_stop_at_their_last_write(monkeypatch):
    """Each phase spans its first write's start to its last write's
    return, so the recovery settle is in no phase's span."""
    trains = []

    class Recording(WriteTrain):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            trains.append(self)

    monkeypatch.setattr(storage, "WriteTrain", Recording)
    drill = storage._run_drill(OSConfig.MCKERNEL_HFI, DRILL_SMOKE_PHASES)
    (train,) = trains
    lo = 0
    for phase in drill.phases:
        hi = lo + phase.count
        assert phase.elapsed == train.returned_at[hi - 1] - train.sent_at[lo]
        lo = hi
    assert drill.phase("storm").elapsed < STORAGE_SETTLE
