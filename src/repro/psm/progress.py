"""Serialized progress workers.

A PSM endpoint is driven by a single application thread, so its device
interactions — window registrations, SDMA submissions — execute one at a
time.  :class:`ProgressWorker` models that: a FIFO of generator jobs
drained by one simulation process.  On McKernel this serialization is what
stacks offloaded ``ioctl``/``writev`` latencies per window.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator, Store


class ProgressWorker:
    """One FIFO job queue drained sequentially."""

    def __init__(self, sim: Simulator, name: str = "progress"):
        self.sim = sim
        self.name = name
        self._jobs = Store(sim, name=f"{name}.jobs")
        self._proc = sim.process(self._run())
        self.completed = 0
        self.failed = 0
        self._on_error: Optional[Callable[[BaseException], None]] = None

    def submit(self, job) -> None:
        """Queue a generator for sequential execution."""
        self._jobs.put(job)

    def on_error(self, handler: Callable[[BaseException], None]) -> None:
        """Install a handler for job exceptions (default: re-raise)."""
        self._on_error = handler

    @property
    def backlog(self) -> int:
        return len(self._jobs.items)

    def _run(self):
        while True:
            job = yield self._jobs.get()
            try:
                yield from self.sim.call(job)
                self.completed += 1
            except Exception as exc:
                self.failed += 1
                if self._on_error is not None:
                    self._on_error(exc)
                else:
                    raise
