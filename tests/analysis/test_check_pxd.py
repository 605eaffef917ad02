"""The pxd-fallback PicoCheck scenario: replica FSM legality and
read-your-writes as model-checker oracles, across the fast-path suspend
seam, with and without adversarial storage-fault placement."""

from repro.analysis.check import SMOKE_BOUNDS, Schedule, execute_run, \
    get_scenarios
from repro.analysis.check_pxd import PxdFallbackScenario
from repro.faults import ScheduledFault


def test_scenario_is_registered():
    scenario = get_scenarios()["pxd-fallback"]
    assert scenario.configs == ("mckernel_hfi",)
    assert scenario.expect_violation is False


def test_default_schedule_is_violation_free():
    result = execute_run(PxdFallbackScenario(), "mckernel_hfi",
                         Schedule.empty(), SMOKE_BOUNDS)
    assert result.quiesced
    assert result.violations == []
    # the write train creates schedulable concurrency and the device
    # model offers storage-fault opportunities the explorer can seize
    assert result.choice_points
    assert result.census.get("media.write_error", 0) >= 1


def test_runs_are_deterministic():
    a = execute_run(PxdFallbackScenario(), "mckernel_hfi",
                    Schedule.empty(), SMOKE_BOUNDS)
    b = execute_run(PxdFallbackScenario(), "mckernel_hfi",
                    Schedule.empty(), SMOKE_BOUNDS)
    assert a.fingerprint == b.fingerprint
    assert [cp.ready_seqs for cp in a.choice_points] \
        == [cp.ready_seqs for cp in b.choice_points]


def test_placed_media_fault_is_absorbed_by_recovery():
    """A write error placed on the first media opportunity evicts a
    replica mid-train; the survivors plus the guard plane must keep
    every oracle green."""
    schedule = Schedule(choices=(),
                        faults=(ScheduledFault("media.write_error", 0),))
    result = execute_run(PxdFallbackScenario(), "mckernel_hfi",
                         schedule, SMOKE_BOUNDS)
    assert result.quiesced
    assert result.violations == []
    assert result.census.get("media.write_error", 0) >= 1


def test_placed_path_loss_is_absorbed_by_recovery():
    schedule = Schedule(choices=(),
                        faults=(ScheduledFault("pxd.path_loss", 0),))
    result = execute_run(PxdFallbackScenario(), "mckernel_hfi",
                         schedule, SMOKE_BOUNDS)
    assert result.quiesced
    assert result.violations == []


def test_scenario_restores_guard_config():
    """The ``guard`` slot is clear again afterwards (asserted by the
    suite-wide ``planes_off`` fixture)."""
    execute_run(PxdFallbackScenario(), "mckernel_hfi", Schedule.empty(),
                SMOKE_BOUNDS)
