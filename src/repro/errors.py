"""Exception hierarchy for the simulated machine and OS stack."""

from __future__ import annotations

from .config import PLANES


class ReproError(Exception):
    """Base class for all simulator-domain errors.

    While ``PLANES.observer`` is set (``python -m repro sanitize``
    installs one), every constructed error is passed to it, so a dynamic
    run's typed errors can be checked against PicoVet's static index of
    construction sites.
    """

    def __init__(self, *args):
        super().__init__(*args)
        if PLANES.observer is not None:
            PLANES.observer(self)


class OutOfMemory(ReproError):
    """A physical-frame or heap allocation could not be satisfied."""


class PageFault(ReproError):
    """An address was dereferenced that the accessing kernel does not map.

    This is the error the PicoDriver's virtual-address-space unification
    exists to prevent: before unification, McKernel dereferencing a Linux
    ``kmalloc`` pointer faults (paper section 3.1).
    """

    def __init__(self, kernel: str, addr: int, why: str = ""):
        self.kernel = kernel
        self.addr = addr
        super().__init__(
            f"{kernel}: page fault dereferencing {addr:#018x}"
            + (f" ({why})" if why else ""))


class BadSyscall(ReproError):
    """Invalid syscall number/arguments (simulated -EINVAL and friends)."""


class DriverError(ReproError):
    """Device-driver level failure (bad TID, ring overflow misuse, ...)."""


class FastPathUnavailable(DriverError):
    """The PicoDriver fast path cannot serve this call right now.

    Raised when the fast path observes (through its DWARF struct views)
    that the device is not in a serviceable state — e.g. the target SDMA
    engine is halted mid-recovery — or when a device submit fails under
    the fast path.  The McKernel syscall dispatcher catches this and
    re-issues the call over the offloaded Linux slow path (graceful
    degradation, paper section 3: the slow path "handles everything").

    ``engine`` carries the index of the SDMA engine that declined the
    call when one was already reserved (``None`` for failures before
    engine selection), so the dispatcher's fallback accounting and the
    guard plane's per-path breakers can attribute the failure.
    """

    def __init__(self, msg: str, engine: "int | None" = None):
        super().__init__(msg)
        self.engine = engine


class MediaError(DriverError):
    """A block-device backing replica failed a media operation.

    Carries the replica index so the pxd driver's per-path accounting
    (tracker ``fails`` counters, guard breakers, eviction) can attribute
    the failure; surfaced to the application only when *every*
    in-service replica fails the same IO.
    """

    def __init__(self, msg: str, replica: "int | None" = None):
        super().__init__(msg)
        self.replica = replica


class TransientDeviceError(DriverError):
    """A device operation failed in a retryable way (e.g. a TID_UPDATE
    that raced a receive-array update); the caller should back off and
    retry before surfacing a hard failure."""


class DeviceTimeout(ReproError):
    """Bounded retries/timeouts exhausted without the transfer completing.

    Surfaced to MPI through the request's completion event after the PSM
    reliability layer gives up (lost packets that outlived every
    retransmit, a peer that never answered an RTS, ...).
    """


class TransferCorrupt(ReproError):
    """Payload integrity check failed and retransmits could not repair it.

    Raised by the PSM expected-receive checksum when injected fabric
    corruption survives the bounded retransmit budget.
    """


class DwarfError(ReproError):
    """Requested structure/field not found in DWARF debug information."""


class LayoutError(ReproError):
    """Kernel virtual address space layout constraint violated."""
