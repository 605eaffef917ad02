"""Analysis-only fixture: an AB-BA lock nesting and a wait under a lock.

``linux_submit`` takes ``mckernel.dispatch`` then ``hfi1.sdma_submit``
(the declared rank order); ``mckernel_submit`` takes them the other way
round, so ``vet`` and ``lockgraph`` must both report PD008 on its inner
acquire.  ``backoff`` yields a timed wait
while it holds ``hfi1.sdma_submit`` (PD009).  This file is parsed by
the analyses, never imported for execution, so the undefined names
inside it are fine.
"""


class AbbaLocks:
    """Both kernels' submit paths over the same two lock classes."""

    def __init__(self, sim, heap):
        self.sim = sim
        self.dispatch_lock = CrossKernelSpinLock(  # noqa: F821 — parsed only
            sim, heap, name="mckernel.dispatch")
        self.sdma_lock = CrossKernelSpinLock(  # noqa: F821 — parsed only
            sim, heap, name="hfi1.sdma_submit")

    def linux_submit(self, aspace):
        """The declared order: dispatch (rank 10), then submit (20)."""
        yield from self.dispatch_lock.acquire("linux", aspace)
        try:
            yield from self.sdma_lock.acquire("linux", aspace)
            self.sdma_lock.release("linux")
        finally:
            self.dispatch_lock.release("linux")

    def mckernel_submit(self, aspace):
        """The inverted order: PD008 on the inner acquire."""
        yield from self.sdma_lock.acquire("mckernel", aspace)
        try:
            yield from self.dispatch_lock.acquire("mckernel", aspace)
            self.dispatch_lock.release("mckernel")
        finally:
            self.sdma_lock.release("mckernel")

    def backoff(self, aspace):
        """Waits inside the critical section: PD009 on the wait."""
        yield from self.sdma_lock.acquire("mckernel", aspace)
        try:
            yield self.sim.timeout(1.0)
        finally:
            self.sdma_lock.release("mckernel")
