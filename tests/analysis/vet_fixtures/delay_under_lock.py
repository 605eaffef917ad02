"""Analysis-only fixture: a fast path that delays under the submit lock.

``DelayingPicoDriver.fast_writev`` takes ``hfi1.sdma_submit`` and then
charges its descriptor-build cost with ``yield from sim.delay(...)``
before it releases the lock, so the Linux side spins on the lock word
for the whole delay: ``vet`` must report PD009 on the delay exactly as
on ``yield sim.timeout(...)``.  This file is parsed by the analyses,
never imported for execution, so the undefined names inside it are
fine.
"""


class DelayingPicoDriver:
    """A Pico chassis whose send path waits inside the critical section."""

    def __init__(self, lwk, linux_driver):
        self.lwk = lwk
        self.linux_driver = linux_driver

    def fast_writev(self, task, fd, iovecs):
        """Charges the descriptor build under the submit lock: PD009."""
        lwk = self.lwk
        sim = lwk.sim
        yield from self.linux_driver.sdma_lock.acquire("mckernel",
                                                       lwk.aspace)
        try:
            yield from sim.delay(lwk.params.syscall.desc_build
                                 * len(iovecs))
        finally:
            self.linux_driver.sdma_lock.release("mckernel")
