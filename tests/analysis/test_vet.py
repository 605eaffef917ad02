"""Tests for ``python -m repro vet``: PicoVet's whole-program analysis,
the per-module rules it runs on the same parse, its one suppression
verdict, and the static-model half of ``python -m repro sanitize``."""

import json
import os
import re
import textwrap

from repro.__main__ import COMMANDS, main
from repro.analysis import astcache
from repro.analysis.cli import cmd_sanitize
from repro.analysis.lint import Finding, default_root, lint_module
from repro.analysis.vet import cmd_vet, vet_paths

from .vet_fixtures.lockedge_rig import run_rig

FIXTURES = os.path.join(os.path.dirname(__file__), "vet_fixtures")
SLEEPY = os.path.join(FIXTURES, "sleepy_fastpath.py")
JOINED = os.path.join(FIXTURES, "joined_calls.py")
FOREIGN = os.path.join(FIXTURES, "foreign_import.py")
COLLECTIVE = os.path.join(FIXTURES, "collective_reduce.py")
REACH = os.path.join(FIXTURES, "rule_reach.py")


# --- the shipped tree --------------------------------------------------------

def test_vet_shipped_tree_is_clean(capsys):
    """The tier-1 bar for every rule at once: the per-module rules and
    the program rules over the shipped tree, one build."""
    assert main(["vet"]) == 0
    out = capsys.readouterr().out
    assert "pd-vet: clean" in out
    assert "fast-path entry point(s)" in out


#: an absolute path to a source file, as a checkout-dependent output
#: would print it
_ABSOLUTE = re.compile(r"(?<![\w.])/[^\s\"':]+\.py")


def test_findings_print_paths_relative_to_the_package():
    """Two checkouts of one commit print the same findings: a path
    under the ``repro`` package prints from the package down."""
    path = os.path.join(default_root(), "core", "hfi_pico.py")
    rendered = Finding(path, 221, 4, "PD009", "m").render()
    assert rendered.startswith("repro/core/hfi_pico.py:221:4: PD009 m")
    assert not _ABSOLUTE.search(rendered)
    # a path outside the package prints as given
    assert Finding("x/y.py", 1, 0, "PD002", "m").render().startswith(
        "x/y.py:1:0: ")


def test_vet_dot_output(capsys):
    assert main(["vet", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "fast_writev" in out
    assert not _ABSOLUTE.search(out)


def test_vet_json_output(capsys):
    assert main(["vet", "--json"]) == 0
    text = capsys.readouterr().out
    # same-named modules qualify their functions by package path
    assert '"repro/linux/pxd/debuginfo.py::build_module"' in text
    assert not _ABSOLUTE.search(text)
    summary = json.loads(text)
    writev = [q for q in summary if q.endswith("HFIPicoDriver.fast_writev")]
    assert len(writev) == 1
    entry = summary[writev[0]]
    assert "lwk" in entry["contexts"]
    assert entry["effects"]["offloads"] == []
    assert entry["effects"]["sleeps"] == []
    assert any("sdma_submit" in a for a in entry["effects"]["acquires"])
    # the chassis registers each subclass's completion callback: both
    # still run in IRQ context
    for cls in ("HFIPicoDriver", "PxdPicoDriver"):
        (qual,) = [q for q in summary if q.endswith(f"{cls}._completion")]
        assert summary[qual]["contexts"] == ["irq"]


def test_vet_unknown_option_exits_two(capsys):
    assert main(["vet", "--dotty"]) == 2
    assert "unknown option" in capsys.readouterr().out


def test_vet_missing_path_exits_two(tmp_path, capsys):
    assert main(["vet", str(tmp_path / "gone.py")]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "gone.py" in out


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
    """The same file is *clean* under the per-module rules: they have no
    interprocedural pass at all, so the whole-program model is the only
    thing standing between the sin and the tree."""
    assert lint_module(astcache.parse_module(SLEEPY)) == []


def test_fixture_directory_names_every_moved_rule(capsys):
    """What the CI seeded-fixture step greps for: each rule that lives
    in vet fires on its fixture, not merely some rule somewhere."""
    assert main(["vet", FIXTURES]) == 1
    out = capsys.readouterr().out
    for code in ("PD008", "PD009", "PD015.1", "PD015.2"):
        assert f": {code} " in out, code
    assert "lock_order.py:36:23: PD008" in out
    assert "lock_order.py:45:18: PD009" in out
    # the engine's in-place delay is a timed wait like a yielded timeout
    assert "delay_under_lock.py:27:23: PD009 timed yield 'sim.delay'" in out


def test_per_function_rules_reach_every_def_and_class():
    """PD002-PD004 judge each def and class wherever it sits: under a
    module-level if or try, nested in a function or in another class,
    and both of two same-named closures; a lambda's body is none of
    them."""
    _program, findings = vet_paths([REACH])
    assert [(f.code, f.line, f.col) for f in findings] == [
        ("PD002", 19, 8),       # def under a module-level if
        ("PD002", 24, 8),       # def under a module-level try
        ("PD003", 34, 8),       # class nested in a function
        ("PD004", 47, 24),      # PicoDriver class nested in a class
        ("PD002", 53, 8),       # first closure named body
        ("PD002", 58, 8),       # second closure named body
        ("PD002", 65, 4),       # the release sits in a lambda
    ]
    assert "in reach_under_if has no matching" in findings[0].message
    assert "in reach_under_try is not in a finally" in findings[1].message
    assert "LocalReachPico.fast_reach_poll" in findings[2].message
    assert findings[3].message.startswith("NestedReachPico builds")
    assert "in reach_past_lambda has no matching" in findings[6].message


def test_unparseable_module_is_pd000_under_vet_and_lockgraph(tmp_path,
                                                            capsys):
    """A module the model cannot parse is a finding, never a silent
    'clean'."""
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main(["vet", str(broken)]) == 1
    out = capsys.readouterr().out
    assert out.count(": PD000 syntax error") == 1     # one parse, one PD000
    assert "1 finding(s)" in out
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


# --- bare names resolve through the caller's imports ------------------------

def _entry(program, name):
    (qual,) = [q for q in program.functions if q.endswith(name)]
    return qual


def test_imported_stdlib_name_is_no_edge_to_a_tree_function():
    """``functools.reduce`` in a fast path is not the tree's offloading
    ``reduce``, even though that is the one module-level ``reduce``."""
    program, findings = vet_paths([FOREIGN, COLLECTIVE])
    entry = _entry(program, "TallyPicoDriver.fast_writev")
    tree_reduce = _entry(program, "collective_reduce.py::reduce")
    assert all(tree_reduce not in rc.targets for rc in program.edges[entry])
    assert not program.effects[entry].offloads
    assert not [f for f in findings if "foreign_import.py" in f.path]


def test_direct_call_to_the_tree_function_is_still_reported():
    program, findings = vet_paths([FOREIGN, COLLECTIVE])
    entry = _entry(program, "DirectPicoDriver.fast_ioctl")
    tree_reduce = _entry(program, "collective_reduce.py::reduce")
    assert any(tree_reduce in rc.targets and rc.confident
               for rc in program.edges[entry])
    (finding,) = findings
    assert finding.code == "PD015.1"
    assert "DirectPicoDriver.fast_ioctl -> reduce" in finding.message


def test_shipped_reduce_calls_are_not_collectives():
    """The SDMA drain loop folds each run of descriptor costs with
    ``functools.reduce``; that call does not reach
    ``mpi.collectives.reduce``."""
    from repro.analysis.vet_effects import Program
    program = Program.build()
    collective = _entry(program, "collectives.py::reduce")
    qual = _entry(program, "SdmaEngine._run")
    assert all(collective not in rc.targets for rc in program.edges[qual])
    assert not program.effects[_entry(program, "SdmaEngine._run")].offloads


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


#: a process that delays and then joins an MPI-style request
DELAYS = """\
    class Simulator:
        def delay(self, d):
            return iter(())


    class Rank:
        def __init__(self, sim):
            self.sim = sim

        def compute(self, req):
            yield from self.sim.delay(1.0)
            yield from req.wait()
    """


def test_delay_is_a_timed_wait_site_and_no_edge(tmp_path):
    """``yield from sim.delay(...)`` is a timed wait, as ``yield
    sim.timeout(...)`` is, and no call edge into the engine; ``yield
    from req.wait()`` (an MPI request's join) is no timed wait."""
    src = tmp_path / "delays.py"
    src.write_text(textwrap.dedent(DELAYS))
    program, _findings = vet_paths([str(src)])
    qual = _entry(program, "Rank.compute")
    assert [(site.what, site.line)
            for site in program.functions[qual].wait_sites] == [
                ("self.sim.delay", 11)]
    assert {site.what for site in program.effects[qual].timed_waits} == {
        "self.sim.delay"}
    assert program.edges[qual] == []


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
    assert cmd_vet([str(hushed)]) == 0
    assert "pd-vet: clean" in capsys.readouterr().out


def test_blanket_suppression_of_a_program_rule_is_used(tmp_path, capsys):
    """A blanket ``# pd-ignore`` silences every rule's finding on its
    line, so it is judged against every rule's findings: the PD009 it
    silences makes it used, never a PD100."""
    hushed = tmp_path / "blanket_wait.py"
    hushed.write_text(textwrap.dedent(HELD_WAIT).format(
        inside="yield self.sim.timeout(1.0)  # pd-ignore",
        after="pass"))
    assert cmd_vet([str(hushed)]) == 0
    out = capsys.readouterr().out
    assert "pd-vet: clean" in out and "PD100" not in out


def test_stale_pd009_suppression_is_reported_by_vet_only(tmp_path, capsys):
    stale = tmp_path / "stale_wait.py"
    stale.write_text(textwrap.dedent(HELD_WAIT).format(
        inside="pass",
        after="yield self.sim.timeout(1.0)  # pd-ignore[PD009]"))
    assert cmd_vet([str(stale)]) == 1
    out = capsys.readouterr().out
    assert out.count(": PD100 ") == 1 and "pd-ignore[PD009]" in out
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


# --- the static model under sanitize -----------------------------------------

def test_crosscheck_unknown_experiment_exits_two(capsys):
    assert cmd_sanitize(["nope"], {}) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_crosscheck_usage_without_name(capsys):
    """The containment check is part of ``sanitize``; vet has no
    ``--crosscheck`` option left."""
    assert cmd_vet(["--crosscheck"]) == 2
    assert "usage:" in capsys.readouterr().out


def test_crosscheck_contained_experiment_passes(capsys):
    rc = cmd_sanitize(["contention"], COMMANDS)
    out = capsys.readouterr().out
    assert rc == 0
    assert "every dynamic fact is contained" in out
    assert "heap access pair(s)" in out


def test_crosscheck_names_missing_lock_edge(capsys):
    """The failure path: a dynamic lock edge between classes no shipped
    file mentions must fail containment, naming the edge, even though
    KSan and lockdep find nothing wrong with the run.  Two machines
    that observe the same facts name each fact once."""
    rc = cmd_sanitize(["rig", "rig"], {"rig": run_rig})
    out = capsys.readouterr().out
    assert rc == 1
    assert "lock edge rig.outer -> rig.inner" in out
    assert "missing from the static lock graph" in out
    assert "rig.outer acquired dynamically but has no static" in out
    assert "3 uncontained fact(s)" in out
    assert "KSan: no cross-kernel races detected" in out
    assert "lockdep: no lock-order hazards" in out


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
