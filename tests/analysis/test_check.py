"""PicoCheck: explorer, oracles, shrinker, artifacts, CLI, identity.

The centerpiece is the seeded-bug fixture
(:mod:`repro.analysis.check_fixtures`): the explorer must find the
seeded cross-kernel race, shrink the counterexample to something
strictly smaller than the first violating schedule, name both sites and
kernels in the report, and replay the exported ``.sched`` script to the
same verdict.  The negative control (bug compiled out) must explore the
same bound exhaustively and find nothing.
"""

import json
import os

import pytest

from repro.analysis.check import (SMOKE_BOUNDS, Bounds, Choice,
                                  ControlledScheduler, Schedule, cmd_check,
                                  execute_run, explore_config, get_scenarios,
                                  parse_schedule_script, replay_schedule,
                                  run_check, write_schedule_script)
from repro.analysis.check_fixtures import FlagRaceScenario
from repro.experiments import run_fig4
from repro.faults import ScheduledFault
from repro.units import KiB

#: small but roomy bound: the rig has ~5 choice points, so this is
#: exhaustive for it
RIG_BOUNDS = Bounds(depth=8, preemptions=2, faults=1, occ_cap=1,
                    max_runs=200, step_budget=10_000)


@pytest.fixture(scope="module")
def found(tmp_path_factory):
    """One full find->shrink->export pass, shared by the assertions."""
    out_dir = str(tmp_path_factory.mktemp("check_artifacts"))
    result = run_check("seeded-flag-race", bounds=RIG_BOUNDS,
                       out_dir=out_dir)
    return result


# --- the seeded bug is found, shrunk and attributed --------------------------

def test_explorer_finds_the_seeded_bug(found):
    assert found.violation_found
    assert found.ok  # the fixture *expects* a violation
    outcome = found.outcomes[0]
    assert outcome.config == "rig"
    assert outcome.violation is not None
    assert "race on rig.data" in outcome.violation


def test_report_names_both_sites_and_kernels(found):
    violation = found.outcomes[0].violation
    assert "write from linux" in violation
    assert "write from mckernel" in violation
    assert "in consumer" in violation
    assert "in producer" in violation


def test_shrunk_counterexample_is_strictly_smaller(found):
    outcome = found.outcomes[0]
    assert outcome.first_schedule is not None
    assert outcome.minimal is not None
    assert outcome.minimal.size < outcome.first_schedule.size
    # the dense first-violating schedule names every recorded choice
    # point; the rig has several, the minimal repro needs exactly one
    assert outcome.first_schedule.size >= 2
    assert outcome.minimal.size == 1


def test_minimal_schedule_still_violates(found):
    outcome = found.outcomes[0]
    result = execute_run(FlagRaceScenario(), "rig", outcome.minimal,
                         RIG_BOUNDS)
    assert result.violations


def test_artifacts_written_and_script_replayable(found, tmp_path):
    outcome = found.outcomes[0]
    assert outcome.sched_path and os.path.exists(outcome.sched_path)
    assert outcome.trace_path and os.path.exists(outcome.trace_path)
    with open(outcome.sched_path) as fh:
        name, config, schedule = parse_schedule_script(fh.read())
    assert (name, config) == ("seeded-flag-race", "rig")
    assert schedule == outcome.minimal
    result, trace_path = replay_schedule(outcome.sched_path,
                                         out_dir=str(tmp_path))
    assert result.violations
    assert os.path.exists(trace_path)


def test_counterexample_trace_marks_the_deviation(found):
    """The Perfetto artifact carries the choice points as instant
    markers, with the deviated pick flagged."""
    with open(found.outcomes[0].trace_path) as fh:
        doc = json.load(fh)
    names = [e.get("name", "") for e in doc["traceEvents"]]
    assert any(n.startswith("choice[") for n in names)
    deviated = [e for e in doc["traceEvents"]
                if e.get("args", {}).get("deviation") is True]
    assert deviated, "no deviated choice marker in the exported trace"


# --- negative control and exploration mechanics ------------------------------

def test_bug_disabled_explores_clean():
    scenario = FlagRaceScenario(bug_enabled=False)
    outcome = explore_config(scenario, "rig", RIG_BOUNDS)
    assert outcome.violation is None
    assert outcome.exhausted
    assert outcome.explored >= 1


def test_default_schedule_is_clean_even_with_the_bug():
    """The seeded bug hides from the FIFO default — that is the point:
    only systematic exploration finds it."""
    result = execute_run(FlagRaceScenario(), "rig", Schedule.empty(),
                         RIG_BOUNDS)
    assert result.violations == []
    assert result.quiesced
    assert len(result.choice_points) >= 2


def test_replay_is_deterministic():
    scenario = FlagRaceScenario()
    a = execute_run(scenario, "rig", Schedule.empty(), RIG_BOUNDS)
    b = execute_run(scenario, "rig", Schedule.empty(), RIG_BOUNDS)
    assert a.fingerprint == b.fingerprint
    assert [cp.ready_seqs for cp in a.choice_points] \
        == [cp.ready_seqs for cp in b.choice_points]


def test_divergent_override_falls_back_to_fifo():
    """A pick the replayed ready set no longer offers must not crash
    the shrinker's probe runs — it degrades to the default."""
    wild = Schedule(choices=(Choice(0, 99),))
    result = execute_run(FlagRaceScenario(), "rig", wild, RIG_BOUNDS)
    assert result.divergences == 1
    assert result.quiesced


def test_globals_restored_after_check_runs():
    """Every plane slot a check run sets is clear again afterwards
    (asserted by the suite-wide ``planes_off`` fixture)."""
    execute_run(FlagRaceScenario(), "rig", Schedule.empty(), RIG_BOUNDS)


# --- schedule scripts --------------------------------------------------------

def test_schedule_script_round_trip(tmp_path):
    schedule = Schedule(choices=(Choice(3, 1), Choice(7, 2)),
                        faults=(ScheduledFault("irq.lost", 4),))
    path = write_schedule_script(str(tmp_path / "x.sched"), "pingpong",
                                 "mckernel_hfi", schedule, note="test")
    with open(path) as fh:
        name, config, parsed = parse_schedule_script(fh.read())
    assert (name, config) == ("pingpong", "mckernel_hfi")
    assert parsed == schedule


def test_schedule_script_rejects_garbage():
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        parse_schedule_script("scenario: x\nconfig: y\nbanana 3\n")
    with pytest.raises(ReproError):
        parse_schedule_script("choice 0 1\n")  # no scenario/config


# --- the controlled scheduler as a unit --------------------------------------

def test_scheduler_records_footprints_and_choices():
    scheduler = ControlledScheduler(Schedule(choices=(Choice(0, 1),)))
    scenario = FlagRaceScenario()
    # drive through execute_run so the full harness wiring is exercised
    result = execute_run(scenario, "rig", Schedule(choices=(Choice(0, 1),)),
                         RIG_BOUNDS)
    assert result.choice_points[0].pick == 1
    assert all(cp.pick == 0 for cp in result.choice_points[1:])
    assert any(rec.writes for rec in result.step_records)
    assert any("producer" in n for rec in result.step_records
               for n in rec.resumed_names)
    assert scheduler.steps == []  # the unit above was never installed


# --- CLI ---------------------------------------------------------------------

def test_cmd_check_fixture_exit_zero(tmp_path, capsys):
    rc = cmd_check(["seeded-flag-race", "--smoke",
                    "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "seeded violation found and shrunk" in out


def test_cmd_check_usage_errors(capsys):
    assert cmd_check(["no-such-scenario"]) == 2
    assert cmd_check([]) == 2
    assert cmd_check(["pingpong", "--bogus-flag"]) == 2
    capsys.readouterr()


# Usage errors print one line and exit 2 before any run starts, so a CI
# step that expects the replay's exit 1 cannot pass on a missing or
# corrupt artifact.

def test_cmd_check_replay_of_a_missing_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "gone.sched"
    assert cmd_check(["--replay", str(missing), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "gone.sched" in out


def test_cmd_check_replay_of_a_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.sched"
    bad.write_text("scenario: seeded-flag-race\nconfig: rig\nchoice a b\n")
    assert cmd_check(["--replay", str(bad), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "line 3" in out


def test_cmd_check_replay_reproduces_the_counterexample(found, tmp_path,
                                                       capsys):
    sched = found.outcomes[0].sched_path
    assert cmd_check(["--replay", sched, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"replayed {sched}: ")
    assert "violations (" in out and "race on rig.data" in out
    assert os.path.exists(tmp_path / "seeded-flag-race_rig.trace.json")


@pytest.mark.parametrize("extra", [["pingpong"], ["--smoke"],
                                   ["--depth", "1"], ["--config", "rig"]])
def test_cmd_check_replay_refuses_what_it_would_ignore(found, tmp_path,
                                                       capsys, extra):
    """A replay runs the schedule's own scenario and config under the
    full bounds, so a scenario, ``--smoke``, a bound or ``--config`` is
    a usage error, not silently dropped."""
    sched = found.outcomes[0].sched_path
    assert cmd_check(["--replay", sched, "--out", str(tmp_path)]
                     + extra) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "--replay takes no scenario" in out
    assert not os.listdir(tmp_path)


def test_cmd_check_non_integer_bound_exits_two(capsys):
    assert cmd_check(["pingpong", "--smoke", "--depth", "x"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "--depth" in out


def test_cmd_check_unknown_config_exits_two(capsys):
    assert cmd_check(["pingpong", "--smoke", "--config", "bogus"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "bogus" in out


def test_cmd_check_list(capsys):
    assert cmd_check(["--list"]) == 0
    out = capsys.readouterr().out
    assert "pingpong" in out and "seeded-flag-race" in out


def test_scenario_registry():
    scenarios = get_scenarios()
    assert set(scenarios) == {"pingpong", "seeded-flag-race",
                              "guard-breaker", "pxd-fallback"}
    assert scenarios["pingpong"].expect_violation is False
    assert scenarios["seeded-flag-race"].expect_violation is True
    assert scenarios["guard-breaker"].expect_violation is False
    assert scenarios["pxd-fallback"].expect_violation is False


# --- the smoke tables are pinned ---------------------------------------------

#: scenario -> config -> (runs, explored, deduped, reduced, root choice
#: points, frontier) of ``python -m repro check <scenario> --smoke``
SMOKE_TABLES = {
    "pingpong": {"linux": (43, 43, 13, 259, 45, "exhausted"),
                 "mckernel": (43, 43, 1, 168, 103, "exhausted"),
                 "mckernel_hfi": (43, 43, 1, 168, 83, "exhausted")},
    "guard-breaker": {"mckernel_hfi": (36, 36, 1, 140, 81, "exhausted")},
    "pxd-fallback": {"mckernel_hfi": (30, 30, 6, 43, 78, "exhausted")},
    "seeded-flag-race": {"rig": (8, 2, 0, 2, 5, "violation")},
}


@pytest.mark.parametrize("name", sorted(SMOKE_TABLES))
def test_smoke_table_is_pinned(name, tmp_path):
    """Every scenario's smoke exploration, row by row: the schedules the
    explorer runs, dedups and prunes are a function of the scenario's
    event order, so a harness refactor that moves any count has moved
    the schedule.  A change meant to move these values must say so and
    update the pins."""
    result = run_check(name, bounds=SMOKE_BOUNDS, out_dir=str(tmp_path))
    table = {}
    for o in result.outcomes:
        frontier = ("violation" if o.violation is not None
                    else "exhausted" if o.exhausted else "run-capped")
        table[o.config] = (o.runs, o.explored, o.deduped, o.reduced,
                           o.root_choice_points, frontier)
    assert table == SMOKE_TABLES[name]
    if result.expect_violation:
        minimal = result.outcomes[0].minimal
        assert (len(minimal.choices), len(minimal.faults)) == (1, 0)


# --- the disabled-identity guarantee -----------------------------------------

def test_check_runs_leave_experiments_bit_identical(tmp_path):
    """Only a check scenario sets ``sim.scheduler``, on the simulators it
    drives, so fig4 before and after a full check exploration is
    bit-identical — the PD012 runtime contract."""
    sizes = (16 * KiB,)
    baseline = run_fig4(sizes=sizes, repetitions=1)
    run_check("seeded-flag-race", bounds=RIG_BOUNDS,
              out_dir=str(tmp_path))
    after = run_fig4(sizes=sizes, repetitions=1)
    assert after.series == baseline.series
