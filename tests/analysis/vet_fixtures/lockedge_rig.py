"""Runnable fixture: a dynamic lock edge the static graph lacks.

``run_rig`` builds a miniature machine — simulator, shared heap, its
own lockdep validator, collected in ``PLANES.lockdep`` the way
:class:`~repro.experiments.common.Machine` collects its own — and
takes ``rig.outer`` then ``rig.inner`` nested.  Neither lock class
appears anywhere in the shipped source tree, so the static lock graph
has neither the classes nor the dependency edge; ``python -m repro vet
--crosscheck`` over this rig must therefore fail containment and name
``rig.outer -> rig.inner``.
"""


def run_rig() -> str:
    """The 'experiment' body handed to the crosscheck command table."""
    from repro.analysis.lockdep import LockdepValidator
    from repro.config import PLANES
    from repro.core import linux_layout
    from repro.core.sync import CrossKernelSpinLock
    from repro.hw import SharedHeap
    from repro.sim import Simulator

    sim = Simulator()
    heap = SharedHeap(65536)
    validator = LockdepValidator(sim, name="rig.lockdep")
    PLANES.lockdep.append(validator)
    heap.add_monitor(validator)
    sim.wait_monitor = validator
    outer = CrossKernelSpinLock(sim, heap, name="rig.outer")
    inner = CrossKernelSpinLock(sim, heap, name="rig.inner")
    linux = linux_layout()

    def nested():
        yield from outer.acquire("linux", linux)
        yield from inner.acquire("linux", linux)
        inner.release("linux")
        outer.release("linux")

    sim.process(nested())
    sim.run()
    return "rig ran: rig.outer -> rig.inner taken nested"
