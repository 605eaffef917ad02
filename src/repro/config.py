"""The three operating-system configurations the paper evaluates, plus
the one registry of opt-in planes.

Every opt-in plane is one slot of :data:`PLANES`, ``None`` while the
plane is off (the default).  Slots are set by a :func:`planes` block,
which restores the previous values on exit; ``enable_tracing`` and
``enable_tune_probe`` remain as bare setters for the benchmark harness.
:class:`repro.experiments.common.Machine` reads the slots once per
build and installs each plane's object on the devices and drivers it
builds, so the data path tests only the handle it already holds
(``inj is not None``, ``self.guard is not None``).  Span emission
tests ``PLANES.trace is not None``; every gate is an attribute load and
an ``is`` test, never a call.

=========  ========================  ====================================
slot       value while on            installed / read by
=========  ========================  ====================================
faults     ``FaultPlan``             Machine: one ``FaultInjector`` for
                                     the fabric, every HFI and blockdev
trace      ``SpanCollector``         span emission sites; Machine
                                     attaches it to each machine
guard      ``GuardPolicy``           Machine: one ``GuardManager`` per
                                     HFI and per pxd stack
tune       ``EvalProbe``             Machine: ``on_machine_built``
ksan       list of ``RaceDetector``  Machine appends one per node heap
lockdep    list of                   Machine appends one per machine
           ``LockdepValidator``
observer   callable(error)           ``ReproError.__init__``
=========  ========================  ====================================
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum
from typing import Iterator


class Planes:
    """The process-wide opt-in plane slots (see the module docstring)."""

    __slots__ = ("faults", "trace", "guard", "tune", "ksan", "lockdep",
                 "observer")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)


#: the one registry of opt-in planes; mutated in place, so a module that
#: imported it always sees the current slots
PLANES = Planes()


@contextmanager
def planes(**slots: object) -> Iterator[None]:
    """Set the named :data:`PLANES` slots for the block, then restore
    their previous values (also when the block raises).

    An unknown slot name raises :class:`TypeError` before any slot
    changes.
    """
    unknown = sorted(set(slots) - set(Planes.__slots__))
    if unknown:
        raise TypeError(f"unknown plane slot(s): {', '.join(unknown)}")
    previous = {name: getattr(PLANES, name) for name in slots}
    for name, value in slots.items():
        setattr(PLANES, name, value)
    try:
        yield
    finally:
        for name, value in previous.items():
            setattr(PLANES, name, value)


def enable_tracing(collector: object = None) -> None:
    """Set the ``trace`` slot outside a :func:`planes` block (``None``
    clears it)."""
    PLANES.trace = collector


def enable_tune_probe(probe: object = None) -> None:
    """Set the ``tune`` slot outside a :func:`planes` block (``None``
    clears it)."""
    PLANES.tune = probe


class OSConfig(Enum):
    """Which OS stack runs the application ranks."""

    #: Fujitsu's HPC-optimized production Linux (nohz_full app cores).
    LINUX = "linux"
    #: Original IHK/McKernel: all device-driver syscalls offloaded.
    MCKERNEL = "mckernel"
    #: McKernel with the HFI PicoDriver fast path.
    MCKERNEL_HFI = "mckernel_hfi"

    @property
    def is_multikernel(self) -> bool:
        return self is not OSConfig.LINUX

    @property
    def has_picodriver(self) -> bool:
        return self is OSConfig.MCKERNEL_HFI

    @property
    def noisy_app_cores(self) -> bool:
        """Only Linux app cores see residual OS noise; LWK cores are
        tickless and isolated."""
        return self is OSConfig.LINUX

    @property
    def label(self) -> str:
        return {OSConfig.LINUX: "Linux",
                OSConfig.MCKERNEL: "McKernel",
                OSConfig.MCKERNEL_HFI: "McKernel+HFI1"}[self]


ALL_CONFIGS = (OSConfig.LINUX, OSConfig.MCKERNEL, OSConfig.MCKERNEL_HFI)
