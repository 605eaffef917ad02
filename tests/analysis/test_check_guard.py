"""The guard-breaker PicoCheck scenario: FSM legality as a model-checker
oracle, with and without adversarial fault placement."""

from repro.analysis.check import Schedule, execute_run, get_scenarios
from repro.analysis.check_guard import GuardBreakerScenario
from repro.faults import ScheduledFault


def test_scenario_is_registered():
    scenario = get_scenarios()["guard-breaker"]
    assert scenario.configs == ("mckernel_hfi",)
    assert scenario.expect_violation is False


def test_default_schedule_is_violation_free():
    result = execute_run(GuardBreakerScenario(), "mckernel_hfi",
                         Schedule.empty(), _bounds())
    assert result.quiesced
    assert result.violations == []


def test_placed_engine_halt_walks_the_breaker_legally():
    """A fault placed on the first SDMA opportunity opens the breaker;
    the run must still quiesce with every message intact-or-typed and
    only legal FSM edges."""
    schedule = Schedule(choices=(),
                        faults=(ScheduledFault("sdma.engine_halt", 0),))
    result = execute_run(GuardBreakerScenario(), "mckernel_hfi",
                         schedule, _bounds())
    assert result.quiesced
    assert result.violations == []
    assert result.census.get("sdma.engine_halt", 0) >= 1


def test_scenario_restores_guard_config():
    """The ``guard`` slot is clear again afterwards (asserted by the
    suite-wide ``planes_off`` fixture)."""
    execute_run(GuardBreakerScenario(), "mckernel_hfi", Schedule.empty(),
                _bounds())


def _bounds():
    from repro.analysis.check import SMOKE_BOUNDS
    return SMOKE_BOUNDS
