"""The PicoGuard flap campaign: failover under a fault burst, goodput
recovery past the acceptance bar, and a suspend/resume drill — all with
the guard and fault plane slots restored afterwards."""

from repro.experiments.chaos import (FLAP_SMOKE_PHASES, RECOVERY_BAR,
                                     cmd_chaos, run_flap)
import pytest


@pytest.fixture(scope="module")
def flap():
    """One smoke campaign shared by the assertions below (the run is
    the expensive part; the checks are all read-only)."""
    return run_flap(smoke=True)


def test_flap_holds_every_oracle(flap):
    assert flap.violations == []
    assert flap.ok


def test_flap_recovers_goodput_past_the_bar(flap):
    assert flap.recovery_ratio >= RECOVERY_BAR


def test_flap_actually_flapped(flap):
    """The campaign is vacuous unless breakers opened, closed again,
    traffic was re-routed at dispatch, and the drill parked a request."""
    assert flap.counters.get("guard.failovers", 0) > 0
    assert flap.counters.get("guard.failbacks", 0) > 0
    assert flap.counters.get("guard.routed_offload", 0) > 0
    assert flap.counters.get("guard.suspends", 0) == 1
    assert flap.counters.get("guard.resumes", 0) == 1
    assert flap.counters.get("guard.parked", 0) > 0


def test_flap_phases_account_every_message(flap):
    assert [p.name for p in flap.phases] == [n for n, _ in FLAP_SMOKE_PHASES]
    for phase, (_name, planned) in zip(flap.phases, FLAP_SMOKE_PHASES):
        assert phase.count == planned
        assert phase.intact + phase.typed == phase.count
    # calm phases must be loss-free
    assert flap.phase("baseline").typed == 0
    assert flap.phase("drill").typed == 0


def test_flap_render_reports_verdict(flap):
    text = flap.render()
    assert "recovery ratio" in text
    assert "failovers" in text and "failbacks" in text
    assert "flap verdict" in text


def test_flap_render_attributes_failovers_to_engines(flap):
    """The report lists the breaker's per-engine counters by name."""
    assert "  guard.failovers.node0.engine0 = 1" \
        in flap.render().splitlines()


def test_flap_restores_global_config(flap):
    """The ``faults`` and ``guard`` slots are clear once the campaign
    (the module fixture) is done: the suite-wide ``planes_off`` fixture
    asserts it before this test runs."""


def test_cmd_chaos_flap_smoke_exits_clean(capsys):
    assert cmd_chaos(["--flap", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "Flap campaign" in out
