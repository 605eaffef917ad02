"""Tests for ``python -m repro vet``, ``sanitize`` and ``lockgraph``
on the command line, and for the retired front doors ``lint`` and
``lockdep``."""

import textwrap

from repro.__main__ import main
from repro.analysis.cli import cmd_sanitize

#: a fast path that offloads (program rule PD015.1, formerly PD001) and
#: peeks at raw heap words from repro/core (per-module rule PD005)
ROGUE_SRC = textwrap.dedent("""\
    class RoguePico(PicoDriver):
        def fast_poke(self, task, addr):
            yield self.lwk._offload(task, "poke", (addr,))

        def peek(self, addr):
            return self.heap.read_u(addr, 4)
    """)


def test_help_lists_analysis_commands(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "vet" in out and "sanitize" in out and "lockgraph" in out


def test_retired_front_doors_exit_two(capsys):
    """``vet`` is the one static command and ``sanitize`` the one
    dynamic one: the old doors and options are gone."""
    for argv in (["lint"], ["lockdep", "chaos"]):
        assert main(argv) == 2
        assert "unknown command" in capsys.readouterr().out
    for argv in (["vet", "--crosscheck", "fig4"], ["vet", "--jobs", "2"]):
        assert main(argv) == 2
        assert "unknown option" in capsys.readouterr().out


# --- the per-module rules under vet ----------------------------------------

def test_lint_rules_flag_prints_table(capsys):
    assert main(["vet", "--rules"]) == 0
    out = capsys.readouterr().out
    # one table for every rule: PD015.1/.3 replace PD001/PD006
    assert "PD002" in out and "PD015.1" in out and "PD015.3" in out


def test_lint_unknown_option_exits_two(capsys):
    assert main(["vet", "--rulez"]) == 2
    assert "unknown option" in capsys.readouterr().out


def test_lint_violation_fixture_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "core" / "rogue.py"
    bad.parent.mkdir()
    bad.write_text(ROGUE_SRC)
    assert main(["vet", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PD005" in out and "2 finding(s)" in out


def test_vet_flags_the_rogue_fast_path(tmp_path, capsys):
    """The offload the local PD001 pass used to flag is PD015.1, found
    by the same run that reports the per-module PD005."""
    bad = tmp_path / "core" / "rogue.py"
    bad.parent.mkdir()
    bad.write_text(ROGUE_SRC)
    assert main(["vet", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PD015.1" in out and "RoguePico.fast_poke" in out
    assert ": PD005 raw shared-heap access 'self.heap.read_u'" in out


# --- sanitize ----------------------------------------------------------------

def test_sanitize_usage_and_unknown_experiment(capsys):
    assert main(["sanitize"]) == 2
    assert "usage:" in capsys.readouterr().out
    assert main(["sanitize", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_sanitize_shipped_experiment_is_clean(capsys):
    assert main(["sanitize", "contention"]) == 0
    out = capsys.readouterr().out
    assert "== KSan verdict ==" in out
    assert "KSan: no cross-kernel races detected" in out
    assert "no races" in out


def test_sanitize_storage_runs_the_storage_smoke_clean(capsys):
    """``sanitize storage`` prints exactly what ``chaos --storage
    --smoke`` prints, then finds no race, no hazard and no fact the
    static model misses on the pxd fast and slow paths."""
    assert main(["chaos", "--storage", "--smoke"]) == 0
    smoke = capsys.readouterr().out
    assert main(["sanitize", "storage"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== sanitizing storage ==\n" + smoke)
    assert "KSan: no cross-kernel races detected" in out
    assert "lockdep: no lock-order hazards" in out
    assert "every dynamic fact is contained" in out


def test_sanitize_flap_runs_the_flap_smoke_clean(capsys):
    """``sanitize flap`` prints exactly what ``chaos --flap --smoke``
    prints, then finds no race, no hazard and no fact the static model
    misses with the guard plane on the HFI fast path."""
    assert main(["chaos", "--flap", "--smoke"]) == 0
    smoke = capsys.readouterr().out
    assert main(["sanitize", "flap"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== sanitizing flap ==\n" + smoke)
    assert "KSan: no cross-kernel races detected" in out
    assert "lockdep: no lock-order hazards" in out
    assert "every dynamic fact is contained" in out


def _racy_experiment():
    """A deliberately broken 'experiment': writes SDMA engine state from
    McKernel without taking ``hfi1.sdma_submit``."""
    from repro.config import OSConfig
    from repro.core.structs import StructView
    from repro.experiments import build_machine
    machine = build_machine(1, OSConfig.MCKERNEL_HFI)
    node = machine.nodes[0]
    rogue = StructView(node.pico.layouts["sdma_state"], node.node.kheap,
                       node.driver.engine_states[0].addr)
    rogue.set("current_state", 0)
    return "rogue write issued"


def test_sanitize_reports_seeded_race(capsys):
    """One run, one verdict: every heap fact of the racy write is one
    the static model contains, yet the race alone fails the run."""
    assert cmd_sanitize(["racy"], {"racy": _racy_experiment}) == 1
    out = capsys.readouterr().out
    assert "race on sdma_state.current_state" in out
    assert "lockset intersection is empty" in out
    assert "1 cross-kernel race(s) detected" in out
    assert "lockdep: no lock-order hazards" in out
    assert "static model: every dynamic fact is contained" in out


# --- lockgraph ---------------------------------------------------------------

def test_lockgraph_dot_output(capsys):
    assert main(["lockgraph", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "hfi1.sdma_submit" in out


def test_lockgraph_unknown_option_exits_two(capsys):
    assert main(["lockgraph", "--dotty"]) == 2
    assert "unknown option" in capsys.readouterr().out


def test_lockgraph_missing_path_exits_two(tmp_path, capsys):
    assert main(["lockgraph", str(tmp_path / "gone.py")]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "gone.py" in out


def test_lockgraph_flags_abba_fixture(tmp_path, capsys):
    bad = tmp_path / "abba.py"
    bad.write_text(textwrap.dedent("""\
        dispatch = CrossKernelSpinLock(sim, heap, name="mckernel.dispatch")
        sdma = CrossKernelSpinLock(sim, heap, name="hfi1.sdma_submit")

        def linux_path(self):
            yield from dispatch.acquire("linux", aspace)
            yield from sdma.acquire("linux", aspace)
            sdma.release("linux")
            dispatch.release("linux")

        def mck_path(self):
            yield from sdma.acquire("mckernel", aspace)
            yield from dispatch.acquire("mckernel", aspace)
            dispatch.release("mckernel")
            sdma.release("mckernel")
        """))
    assert main(["lockgraph", str(bad)]) == 1
    out = capsys.readouterr().out
    # the rank order is PD008's alone; the graph adds the cycle
    assert ": PD008 " in out and "rank 10" in out and "rank 20" in out
    assert "lockgraph: 1 finding(s), 1 cycle(s)" in out
    assert "hierarchy violations" not in out


# --- lockdep under sanitize --------------------------------------------------

def _lockdep_machine(abba):
    """A miniature 'experiment' with its own validator, collected in the
    ``lockdep`` plane slot as a machine's would be.  The quiet variant
    takes only ``hfi1.sdma_submit``, which the shipped tree acquires, so
    its one lock class has a static acquisition site."""
    from repro.analysis.lockdep import LockdepValidator
    from repro.config import PLANES
    from repro.core import linux_layout, mckernel_unified_layout
    from repro.core.sync import CrossKernelSpinLock
    from repro.hw import SharedHeap
    from repro.sim import Simulator

    sim = Simulator()
    heap = SharedHeap(65536)
    validator = LockdepValidator(sim, name="fixture.lockdep")
    PLANES.lockdep.append(validator)
    heap.add_monitor(validator)
    sim.wait_monitor = validator
    dispatch = CrossKernelSpinLock(sim, heap, name="mckernel.dispatch")
    sdma = CrossKernelSpinLock(sim, heap, name="hfi1.sdma_submit")
    linux = linux_layout()
    mck = mckernel_unified_layout()

    def single(lock, kernel, aspace, start):
        yield sim.timeout(start)
        yield from lock.acquire(kernel, aspace)
        lock.release(kernel)

    def nested(lock1, lock2, kernel, aspace, start):
        yield sim.timeout(start)
        yield from lock1.acquire(kernel, aspace)
        yield from lock2.acquire(kernel, aspace)
        lock2.release(kernel)
        lock1.release(kernel)

    if abba:
        sim.process(nested(dispatch, sdma, "linux", linux, 0.0))
        sim.process(nested(sdma, dispatch, "mckernel", mck, 1.0))
    else:
        sim.process(single(sdma, "linux", linux, 0.0))
        sim.process(single(sdma, "mckernel", mck, 1.0))
    sim.run()
    return "fixture ran"


def test_lockdep_usage_and_unknown_experiment(capsys):
    assert cmd_sanitize([], {}) == 2
    out = capsys.readouterr().out
    assert "usage:" in out and "chaos" in out
    assert cmd_sanitize(["nope"], {}) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_lockdep_clean_experiment_exits_zero(capsys):
    rc = cmd_sanitize(["quiet"], {"quiet": lambda: _lockdep_machine(False)})
    out = capsys.readouterr().out
    assert rc == 0
    assert "lockdep: no lock-order hazards" in out
    assert "static model: every dynamic fact is contained" in out


def test_lockdep_reports_seeded_abba(capsys):
    rc = cmd_sanitize(["abba"], {"abba": lambda: _lockdep_machine(True)})
    out = capsys.readouterr().out
    assert rc == 1
    assert "lockdep order-cycle: lock-class dependency cycle" in out
    assert "hierarchy-violation" in out
    assert "linux" in out and "mckernel" in out
    assert "KSan: no cross-kernel races detected" in out
