"""Cross-kernel synchronization (paper section 3.3).

Both kernels touch HFI driver state concurrently — Linux from offloaded
syscalls and completion IRQs, McKernel from the PicoDriver fast path — so
they must share locks.  The lock word lives in the shared kernel heap (the
direct-mapped region both kernels address after unification) and the two
kernels must run *compatible spin-lock implementations*; McKernel adopted
the Linux x86_64 implementation, which the constructor enforces.

In the discrete-event model, waiting for the lock burns CPU time (a spinner
does not sleep — Linux cannot send wake-ups across kernel boundaries), and
that spin time is accounted to the acquiring context.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..errors import DriverError
from ..hw.memory import SharedHeap
from ..sim import Resource, Simulator, Tracer
from .address_space import KernelAddressSpace
from .lockclasses import REGISTRY as LOCK_CLASSES

#: the one implementation both kernels must agree on
LINUX_QSPINLOCK = "linux-x86_64-qspinlock"


class CrossKernelSpinLock:
    """A spin lock whose state word lives in shared kernel memory.

    ``acquire``/``release`` are generators (simulation processes).  FIFO
    fairness comes from the underlying queue; the heap word is maintained
    for real so tests can observe lock state from either kernel's view.
    """

    def __init__(self, sim: Simulator, heap: SharedHeap, name: str = "lock",
                 impl: str = LINUX_QSPINLOCK,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.heap = heap
        self.name = name
        self.impl = impl
        self.tracer = tracer if tracer is not None else Tracer()
        self.word_addr = heap.kmalloc(4)
        heap.write_u(self.word_addr, 4, 0)
        self._res = Resource(sim, capacity=1, name=name)
        self._holder: Optional[str] = None
        self._held_req = None
        #: the holder's critical-section frame, captured at grant time —
        #: recursion detection and lockdep's held-across-wait attribution
        #: both key off frame identity, because kernel strings are shared
        #: by every process of that kernel
        self._holder_frame = None

    @property
    def locked(self) -> bool:
        return self.heap.read_u(self.word_addr, 4) != 0

    @property
    def holder(self) -> Optional[str]:
        return self._holder

    @property
    def lock_class(self):
        """The declared :class:`~repro.core.lockclasses.LockClass` this
        lock's name resolves to, or None for an undeclared lock."""
        return LOCK_CLASSES.get(self.name)

    def acquire(self, kernel: str, aspace: KernelAddressSpace,
                impl: str = LINUX_QSPINLOCK):
        """Generator: spin until the lock is ours.

        ``aspace`` is the acquiring kernel's address space — dereferencing
        the lock word requires the shared direct mapping, so acquiring a
        Linux-heap lock from a non-unified McKernel page-faults here, just
        as it would on hardware.
        """
        if impl != self.impl:
            raise DriverError(
                f"spin-lock implementation mismatch on {self.name}: "
                f"lock is {self.impl}, acquirer uses {impl}")
        aspace.check_access(self.word_addr, f"spin-lock word of {self.name}")
        if self._holder is not None and self._holder_frame is not None \
                and self._frame_is_live_caller(self._holder_frame):
            # The FIFO resource would queue this request behind the very
            # critical section issuing it — a silent self-deadlock (a
            # real qspinlock spins forever here).  Kernel identity is not
            # enough to detect it (two processes of one kernel contend
            # legally), so we check whether the holder's recorded
            # critical-section frame is on the *current* call chain.
            raise DriverError(
                f"recursive acquisition of {self.name} by {kernel}: "
                f"already held by this context (acquired as "
                f"{self._holder}); a spinning kernel never sees its own "
                f"release")
        t0 = self.sim.now
        req = self._res.request()
        yield req
        spin = self.sim.now - t0
        if spin > 0:
            self.tracer.record(f"spin.{self.name}", spin)
        # the lock word is manipulated with atomic instructions (cmpxchg)
        monitor = self.heap.monitor
        if monitor is not None:
            monitor.annotate(kernel, f"lock:{self.name}", atomic=True)
        self.heap.write_u(self.word_addr, 4, 1)
        self._holder = kernel
        self._held_req = req
        # the delegating frame one level up is the critical section
        self._holder_frame = sys._getframe().f_back
        if monitor is not None:
            monitor.on_lock_acquired(self, kernel, self._holder_frame)
        return req

    @staticmethod
    def _frame_is_live_caller(holder_frame) -> bool:
        """True if ``holder_frame`` is on the current Python call chain
        (i.e. the code attempting to acquire *is* the critical section
        that already holds the lock, however many ``yield from`` levels
        deep)."""
        frame = sys._getframe(2)
        while frame is not None:
            if frame is holder_frame:
                return True
            frame = frame.f_back
        return False

    def release(self, kernel: str) -> None:
        """Clear the lock word and wake the next FIFO waiter.

        Misuse — releasing an unheld lock (double release) or a lock
        held by the *other* kernel — is a driver-protocol violation and
        raises :class:`~repro.errors.DriverError`; on hardware it would
        hand the critical section to a racing waiter.
        """
        if self._holder is None:
            raise DriverError(
                f"double release of {self.name}: lock is not held")
        if self._holder != kernel:
            raise DriverError(
                f"{kernel} releasing {self.name} held by {self._holder}")
        monitor = self.heap.monitor
        if monitor is not None:
            monitor.annotate(kernel, f"lock:{self.name}", atomic=True)
        self.heap.write_u(self.word_addr, 4, 0)
        self._holder = None
        self._holder_frame = None
        req, self._held_req = self._held_req, None
        if monitor is not None:
            monitor.on_lock_released(self, kernel)
        self._res.release(req)

    def held_by(self, kernel: str) -> bool:
        """True if ``kernel`` currently holds the lock."""
        return self._holder == kernel


def rcu_synchronize(*_args, **_kwargs):
    """Cross-kernel RCU is explicitly unsupported.

    Paper section 3.3: "although we did not need it in this study, we
    have not solved the problem of RCU locks, which we left for future
    work."  A PicoDriver port that needs an RCU grace period spanning
    both kernels must fail loudly rather than race silently.
    """
    raise NotImplementedError(
        "cross-kernel RCU grace periods are unsupported (PicoDriver "
        "future work, paper section 3.3); restructure the fast path to "
        "use spin locks or defer the RCU-protected operation to Linux")
