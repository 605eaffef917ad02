"""Tests for ``python -m repro lint``, ``sanitize``, ``lockgraph`` and
``lockdep``."""

import textwrap

from repro.__main__ import main
from repro.analysis.cli import cmd_sanitize

#: a fast path that offloads (vet PD015.1, formerly lint PD001) and peeks
#: at raw heap words from repro/core (lint PD005)
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
    assert "lint" in out and "sanitize" in out


# --- lint --------------------------------------------------------------------

def test_lint_shipped_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "pd-lint: clean" in capsys.readouterr().out


def test_lint_rules_flag_prints_table(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    # the one table lists vet's rules too: PD015.1/.3 replace PD001/PD006
    assert "PD002" in out and "PD015.1" in out and "PD015.3" in out


def test_lint_unknown_option_exits_two(capsys):
    assert main(["lint", "--rulez"]) == 2
    assert "unknown option" in capsys.readouterr().out


def test_lint_violation_fixture_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "core" / "rogue.py"
    bad.parent.mkdir()
    bad.write_text(ROGUE_SRC)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PD005" in out and "finding(s)" in out


def test_vet_flags_the_rogue_fast_path(tmp_path, capsys):
    """The offload the local PD001 pass used to flag is vet's PD015.1."""
    bad = tmp_path / "core" / "rogue.py"
    bad.parent.mkdir()
    bad.write_text(ROGUE_SRC)
    assert main(["vet", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PD015.1" in out and "RoguePico.fast_poke" in out
    assert "PD005" not in out


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
    assert cmd_sanitize(["racy"], {"racy": _racy_experiment}) == 1
    out = capsys.readouterr().out
    assert "race on sdma_state.current_state" in out
    assert "lockset intersection is empty" in out
    assert "1 cross-kernel race(s) detected" in out


# --- lockgraph ---------------------------------------------------------------

def test_lockgraph_shipped_tree_exits_zero(capsys):
    assert main(["lockgraph"]) == 0
    out = capsys.readouterr().out
    assert "declared hierarchy:" in out
    assert "hfi1.sdma_submit" in out
    assert "lockgraph: acyclic and hierarchy-clean" in out


def test_lockgraph_dot_output(capsys):
    assert main(["lockgraph", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "hfi1.sdma_submit" in out


def test_lockgraph_unknown_option_exits_two(capsys):
    assert main(["lockgraph", "--dotty"]) == 2
    assert "unknown option" in capsys.readouterr().out


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
    assert "PD008" in out
    assert "cycle" in out


# --- lockdep -----------------------------------------------------------------

def _lockdep_machine(abba):
    """A miniature 'experiment' with its own validator, collected in the
    ``lockdep`` plane slot as a machine's would be."""
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
        sim.process(single(dispatch, "mckernel", mck, 1.0))
    sim.run()
    return "fixture ran"


def test_lockdep_usage_and_unknown_experiment(capsys):
    from repro.analysis.cli import cmd_lockdep
    assert cmd_lockdep([], {}) == 2
    assert "usage:" in capsys.readouterr().out
    assert cmd_lockdep(["nope"], {}) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_lockdep_clean_experiment_exits_zero(capsys):
    from repro.analysis.cli import cmd_lockdep
    rc = cmd_lockdep(["quiet"], {"quiet": lambda: _lockdep_machine(False)})
    out = capsys.readouterr().out
    assert rc == 0
    assert "no lock-order hazards" in out


def test_lockdep_reports_seeded_abba(capsys):
    from repro.analysis.cli import cmd_lockdep
    rc = cmd_lockdep(["abba"], {"abba": lambda: _lockdep_machine(True)})
    out = capsys.readouterr().out
    assert rc == 1
    assert "order-cycle" in out or "cycle" in out
    assert "hierarchy" in out
    assert "linux" in out and "mckernel" in out


# --- lint --jobs -------------------------------------------------------------

def test_lint_jobs_parallel_matches_serial(capsys):
    assert main(["lint", "--jobs", "2"]) == 0
    assert "pd-lint: clean" in capsys.readouterr().out


def test_lint_jobs_option_validation(capsys):
    assert main(["lint", "--jobs"]) == 2
    assert "--jobs needs a worker count" in capsys.readouterr().out
    assert main(["lint", "--jobs", "many"]) == 2
    assert "not a number" in capsys.readouterr().out


def test_lint_jobs_parallel_reports_findings(tmp_path, capsys):
    bad = tmp_path / "core" / "rogue.py"
    bad.parent.mkdir()
    bad.write_text(ROGUE_SRC)
    ok = tmp_path / "core" / "fine.py"
    ok.write_text("x = 1\n")
    assert main(["lint", "--jobs", "2", str(bad), str(ok)]) == 1
    assert "PD005" in capsys.readouterr().out
