"""Tests for ``python -m repro vet``: PicoVet's whole-program analysis."""

import json
import os
import textwrap

from repro.__main__ import COMMANDS, main
from repro.analysis import astcache
from repro.analysis.lint import lint_paths
from repro.analysis.vet import cmd_vet, vet_paths

from .vet_fixtures.lockedge_rig import run_rig

FIXTURES = os.path.join(os.path.dirname(__file__), "vet_fixtures")
SLEEPY = os.path.join(FIXTURES, "sleepy_fastpath.py")
JOINED = os.path.join(FIXTURES, "joined_calls.py")


# --- the shipped tree --------------------------------------------------------

def test_vet_shipped_tree_is_clean(capsys):
    assert main(["vet"]) == 0
    out = capsys.readouterr().out
    assert "pd-vet: clean" in out
    assert "fast-path entry point(s)" in out


def test_vet_dot_output(capsys):
    assert main(["vet", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "fast_writev" in out


def test_vet_json_output(capsys):
    assert main(["vet", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    writev = [q for q in summary if q.endswith("HFIPicoDriver.fast_writev")]
    assert len(writev) == 1
    entry = summary[writev[0]]
    assert "lwk" in entry["contexts"]
    assert entry["effects"]["offloads"] == []
    assert entry["effects"]["sleeps"] == []
    assert any("sdma_submit" in a for a in entry["effects"]["acquires"])


def test_vet_unknown_option_exits_two(capsys):
    assert main(["vet", "--dotty"]) == 2
    assert "unknown option" in capsys.readouterr().out


def test_vet_help_lists_command(capsys):
    assert main([]) == 0
    assert "vet" in capsys.readouterr().out


# --- the seeded fixtures: vet catches what lint cannot -----------------------

def test_seeded_fixture_caught_by_pd015(capsys):
    assert main(["vet", SLEEPY]) == 1
    out = capsys.readouterr().out
    assert "PD015.2" in out                   # transitive sleep
    assert "PD015.1" in out                   # cross-class offload
    assert "rcu_synchronize" in out
    # the witness chain names both hops to the sleeping callee
    assert "fast_writev -> SleepyPicoDriver._flush -> DrainRing.drain" in out


def test_seeded_fixture_invisible_to_local_lint():
    """The same file is *clean* under the syntactic rules: lint has no
    interprocedural pass at all, so the whole-program model is the only
    thing standing between the sin and the tree."""
    assert lint_paths([SLEEPY]) == []


def test_fixture_directory_names_every_moved_rule(capsys):
    """What the CI seeded-fixture step greps for: each rule that lives
    in vet fires on its fixture, not merely some rule somewhere."""
    assert main(["vet", FIXTURES]) == 1
    out = capsys.readouterr().out
    for code in ("PD008", "PD009", "PD015.1", "PD015.2"):
        assert f": {code} " in out, code
    assert "lock_order.py:36:23: PD008" in out
    assert "lock_order.py:45:18: PD009" in out


def test_unparseable_module_is_pd000_under_vet_and_lockgraph(tmp_path,
                                                            capsys):
    """A module the model cannot parse is a finding, never a silent
    'clean'."""
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main(["vet", str(broken)]) == 1
    assert ": PD000 syntax error" in capsys.readouterr().out
    assert main(["lockgraph", str(broken)]) == 1
    assert ": PD000 syntax error" in capsys.readouterr().out


def test_fixture_effects_are_transitive_not_local():
    program, _findings = vet_paths([SLEEPY])
    (entry,) = [q for q in program.functions
                if q.endswith("SleepyPicoDriver.fast_writev")]
    # locally pure ...
    assert not program.functions[entry].effect.sleeps
    # ... transitively sleeping, with the sin attributed to drain()
    transitive = program.effects[entry].sleeps
    assert any(s.what == "rcu_synchronize" for s in transitive)
    assert "lwk" in program.contexts[entry]


# --- PD015.6: the fault points --------------------------------------------

def test_fault_points_on_the_shipped_tree():
    """PicoVet finds exactly the two TID_UPDATE transient raises as fault
    points; a gate-name slip that found none would leave PD015.6 with
    nothing to check."""
    from repro.analysis.vet_effects import Program
    program = Program.build()
    points = sorted((qual.rsplit("::", 1)[-1], errname)
                    for qual, fn in program.functions.items()
                    for errname, _site in fn.fault_raises)
    assert points == [("HFIPicoDriver._tid_update", "TransientDeviceError"),
                      ("Hfi1Driver._tid_update", "TransientDeviceError")]


#: an injector-gated typed raise; ``{caller}`` may add a handler for it
FAULT_POINT = """\
    class FlakyError(ReproError):
        pass


    class Device:
        def poke(self):
            inj = self.injector
            if inj is not None and inj.fires("poke.flaky"):
                raise FlakyError("transient poke failure")
            return 0
    {caller}
    """

HANDLER = """
    class Caller:
        def run(self, dev):
            try:
                return dev.poke()
            except FlakyError:
                return None
"""


def test_pd015_6_fault_point_without_handler(tmp_path):
    src = tmp_path / "unhandled.py"
    src.write_text(textwrap.dedent(FAULT_POINT.format(caller="")))
    _program, findings = vet_paths([str(src)])
    assert [(f.code, f.line) for f in findings] == [("PD015.6", 9)]
    assert "raises FlakyError" in findings[0].message


def test_pd015_6_fault_point_with_handler_is_clean(tmp_path):
    src = tmp_path / "handled.py"
    src.write_text(textwrap.dedent(FAULT_POINT.format(caller=HANDLER)))
    _program, findings = vet_paths([str(src)])
    assert findings == []


def _joined(name):
    program, findings = vet_paths([JOINED])
    (qual,) = [q for q in program.functions
               if q.endswith(f"JoinedPicoDriver.{name}")]
    return program, findings, qual


def test_inline_join_is_a_synchronous_call():
    """``yield from sim.call(f(...))`` runs ``f`` in the caller's frame:
    a call edge, no spawn edge, and ``f``'s sleep is the fast path's."""
    program, findings, entry = _joined("fast_writev")
    settle = entry.replace("fast_writev", "_settle")
    assert any(settle in rc.targets for rc in program.edges[entry])
    assert program.spawn_edges[entry] == []
    (finding,) = findings
    assert finding.code == "PD015.2"
    assert "fast_writev -> JoinedPicoDriver._settle" in finding.message


def test_detached_spawn_is_a_spawn_edge():
    """``sim.spawn(f(...))`` is a spawn edge, like ``sim.process``: the
    detached process inherits the spawner's context."""
    program, _findings, entry = _joined("fast_poll")
    watch = entry.replace("fast_poll", "_watch")
    assert any(watch in rc.targets for rc in program.spawn_edges[entry])
    assert "lwk" in program.contexts[watch]


# --- suppressions ------------------------------------------------------------

def test_vet_suppression_and_family_prefix(tmp_path, capsys):
    bad = tmp_path / "hushed.py"
    bad.write_text(textwrap.dedent("""\
        class HushedPico:
            def fast_poke(self, task):  # pd-ignore[PD015]
                yield self.lwk.ikc.post(task, None)
        """))
    assert cmd_vet([str(bad)]) == 0
    assert "pd-vet: clean" in capsys.readouterr().out


#: a critical section; ``{inside}`` runs under the lock, ``{after}`` not
HELD_WAIT = """\
    class Waiter:
        def __init__(self, sim, heap):
            self.sim = sim
            self.lock = CrossKernelSpinLock(sim, heap, name="hfi1.sdma_submit")

        def spin(self, aspace):
            yield from self.lock.acquire("linux", aspace)
            try:
                {inside}
            finally:
                self.lock.release("linux")
            {after}
    """


def test_used_pd009_suppression_is_clean_under_lint_and_vet(tmp_path,
                                                            capsys):
    hushed = tmp_path / "hushed_wait.py"
    hushed.write_text(textwrap.dedent(HELD_WAIT).format(
        inside="yield self.sim.timeout(1.0)  # pd-ignore[PD009]",
        after="pass"))
    assert lint_paths([str(hushed)]) == []
    assert cmd_vet([str(hushed)]) == 0
    assert "pd-vet: clean" in capsys.readouterr().out


def test_stale_pd009_suppression_is_reported_by_vet_only(tmp_path, capsys):
    stale = tmp_path / "stale_wait.py"
    stale.write_text(textwrap.dedent(HELD_WAIT).format(
        inside="pass",
        after="yield self.sim.timeout(1.0)  # pd-ignore[PD009]"))
    assert lint_paths([str(stale)]) == []
    assert cmd_vet([str(stale)]) == 1
    out = capsys.readouterr().out
    assert "PD100" in out and "pd-ignore[PD009]" in out
    assert ": PD009 " not in out


def test_vet_stale_suppression_reports_pd100(tmp_path, capsys):
    lazy = tmp_path / "lazy.py"
    lazy.write_text(textwrap.dedent("""\
        class InnocentPico:
            def fast_noop(self, task):  # pd-ignore[PD015.5]
                return task
        """))
    assert cmd_vet([str(lazy)]) == 1
    out = capsys.readouterr().out
    assert "PD100" in out and "PD015.5" in out


# --- the crosscheck gate -----------------------------------------------------

def test_crosscheck_unknown_experiment_exits_two(capsys):
    assert cmd_vet(["--crosscheck", "nope"], {}) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_crosscheck_usage_without_name(capsys):
    assert cmd_vet(["--crosscheck"]) == 2
    assert "usage:" in capsys.readouterr().out


def test_crosscheck_contained_experiment_passes(capsys):
    rc = cmd_vet(["--crosscheck", "contention"], COMMANDS)
    out = capsys.readouterr().out
    assert rc == 0
    assert "every dynamic fact is contained" in out
    assert "heap access pair(s)" in out


def test_crosscheck_names_missing_lock_edge(capsys):
    """The failure path: a dynamic lock edge between classes no shipped
    file mentions must fail containment, naming the edge."""
    rc = cmd_vet(["--crosscheck", "rig"], {"rig": run_rig})
    out = capsys.readouterr().out
    assert rc == 1
    assert "lock edge rig.outer -> rig.inner" in out
    assert "missing from the static lock graph" in out
    assert "rig.outer acquired dynamically but has no static" in out
    assert "3 uncontained fact(s)" in out


# --- determinism: vet never perturbs the experiments -------------------------

def test_fig4_bit_identical_around_a_vet_run():
    from repro.experiments import run_fig4
    from repro.units import KiB
    sizes = (16 * KiB,)
    baseline = run_fig4(sizes=sizes, repetitions=1)
    assert main(["vet"]) == 0
    again = run_fig4(sizes=sizes, repetitions=1)
    assert again.series == baseline.series


# --- the shared AST cache ----------------------------------------------------

def test_astcache_reuses_parses():
    astcache.clear()
    first = astcache.parse_module(SLEEPY)
    hits_before = astcache.STATS["hits"]
    second = astcache.parse_module(SLEEPY)
    assert second is first
    assert astcache.STATS["hits"] == hits_before + 1


def test_astcache_invalidates_on_change(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    first = astcache.parse_module(str(mod))
    assert first.ok
    mod.write_text("x = 2\n")
    os.utime(mod, (1, 1))  # force a different mtime even on fast writes
    second = astcache.parse_module(str(mod))
    assert second is not first
    assert second.source == "x = 2\n"


def test_astcache_records_syntax_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    module = astcache.parse_module(str(broken))
    assert not module.ok
    assert module.error is not None
    assert module.tree is None
