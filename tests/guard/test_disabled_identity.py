"""The PD013 runtime contract: with the guard disabled, the paper's
figures are bit-identical to a build that never loaded the guard plane
— enabling and disabling it between runs leaves no residue."""

from repro.config import OSConfig, planes
from repro.experiments import build_machine, run_fig4, run_fig5a
from repro.guard import GuardPolicy
from repro.units import KiB

FIG4_SIZES = (16 * KiB,)
FIG5_NODES = (2,)


def exercise_guarded_machine():
    """Build and run a guarded machine so the guard plane demonstrably
    touched state between the baseline and comparison runs."""
    with planes(guard=GuardPolicy()):
        machine = build_machine(2, OSConfig.MCKERNEL_HFI)
        guard = machine.nodes[0].guard
        assert guard is not None
        for i in range(len(guard.gates)):
            guard.record_failure(guard.engine_path(i), "identity drill")
        machine.sim.run()


def test_fig4_bit_identical_around_a_guarded_run():
    baseline = run_fig4(sizes=FIG4_SIZES, repetitions=1)
    exercise_guarded_machine()
    after = run_fig4(sizes=FIG4_SIZES, repetitions=1)
    assert after.series == baseline.series


def test_fig5_bit_identical_around_a_guarded_run():
    baseline = run_fig5a(node_counts=FIG5_NODES, iterations=1)
    exercise_guarded_machine()
    after = run_fig5a(node_counts=FIG5_NODES, iterations=1)
    assert after.relative == baseline.relative
