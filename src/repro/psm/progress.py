"""Serialized progress workers.

A PSM endpoint is driven by a single application thread, so its device
interactions — window registrations, SDMA submissions — execute one at a
time.  :class:`ProgressWorker` models that: a FIFO of generator jobs
drained by one simulation process.  On McKernel this serialization is what
stacks offloaded ``ioctl``/``writev`` latencies per window.

The drain loop is a detached process (``sim.spawn``): a job that raises
ends the loop, and the exception propagates out of ``sim.run`` instead
of vanishing with it.
"""

from __future__ import annotations

from typing import List

from ..sim import Event, Simulator, Store


class ProgressWorker:
    """One FIFO job queue drained sequentially."""

    def __init__(self, sim: Simulator, name: str = "progress"):
        self.sim = sim
        self.name = name
        self._jobs = Store(sim, name=f"{name}.jobs")
        sim.spawn(self._run())
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self._idle_waiters: List[Event] = []

    def submit(self, job) -> None:
        """Queue a generator for sequential execution."""
        self.submitted += 1
        self._jobs.put(job)

    @property
    def idle(self) -> bool:
        """Every submitted job has finished (none queued or running)."""
        return self.completed + self.failed == self.submitted

    def drain(self):
        """Generator: wait until the worker is idle; returns at once,
        with no event, when it already is."""
        while not self.idle:
            waiter = Event(self.sim)
            self._idle_waiters.append(waiter)
            yield waiter

    def _run(self):
        while True:
            job = yield self._jobs.get()
            try:
                yield from self.sim.call(job)
                self.completed += 1
            except Exception:
                self.failed += 1
                raise
            if self._idle_waiters and self.idle:
                for waiter in self._idle_waiters:
                    waiter.succeed()
                self._idle_waiters.clear()
