"""Task and kernel base classes shared by Linux and McKernel models.

A :class:`Task` is an execution context (an MPI rank's process) pinned to a
core of one kernel.  All time a task spends — user computation, syscall
handling, spinning on locks — flows through its kernel's generators so the
kernel can apply its personality (noise on Linux app cores, offloading on
McKernel, ...).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..errors import BadSyscall
from ..hw.pagetable import PageTable
from ..params import Params
from ..sim import Simulator, Tracer


class Task:
    """One process/thread context."""

    def __init__(self, name: str, kernel: "KernelBase", core_id: int,
                 rng: Optional[np.random.Generator] = None):
        self.name = name
        self.kernel = kernel
        self.core_id = core_id
        self.rng = rng
        self.pagetable = PageTable(owner=name)
        #: next anonymous mmap address (per-task user VA cursor)
        self.mmap_cursor = 0x7F00_0000_0000
        #: opaque per-layer state (PSM endpoint, proxy link, ...)
        self.state: Dict[str, Any] = {}

    def syscall(self, name: str, *args):
        """Generator: issue a syscall through the owning kernel."""
        return self.kernel.syscall(self, name, *args)

    def compute(self, seconds: float):
        """Generator: burn CPU time (kernel may inflate it with noise)."""
        return self.kernel.execute(self, seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} on {self.kernel.name} core {self.core_id}>"


class KernelBase:
    """Common kernel machinery: syscall dispatch plus time accounting."""

    #: "linux" or "mckernel"
    name: str = "kernel"

    def __init__(self, sim: Simulator, params: Params,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.params = params
        self.tracer = tracer if tracer is not None else Tracer()
        self._tasks: Dict[str, Task] = {}

    # -- tasks ---------------------------------------------------------------

    def spawn_task(self, name: str, core_id: int,
                   rng: Optional[np.random.Generator] = None) -> Task:
        """Create a task bound to this kernel on ``core_id``."""
        task = Task(name, self, core_id, rng)
        self._tasks[name] = task
        return task

    # -- time ----------------------------------------------------------------

    def execute(self, task: Task, seconds: float):
        """Generator: run ``seconds`` of computation in ``task``.

        The base implementation is noise-free; Linux overrides it to add
        residual jitter on application cores.
        """
        if seconds > 0:
            yield from self.sim.delay(seconds)
        return None

    # -- syscalls --------------------------------------------------------------

    def syscall(self, task: Task, name: str, *args):
        """Generator: full syscall path.  Subclasses implement
        ``_dispatch`` and may wrap it (entry cost, offloading...)."""
        raise NotImplementedError

    def account_syscall(self, name: str, elapsed: float) -> None:
        """Feed the per-syscall kernel profiler (Figures 8-9)."""
        self.tracer.record(f"syscall.{name}", elapsed)
        self.tracer.count(f"syscall.{name}.calls")

    @staticmethod
    def check_args(name: str, args: tuple, n: int) -> None:
        if len(args) != n:
            raise BadSyscall(f"{name} expects {n} args, got {len(args)}")
