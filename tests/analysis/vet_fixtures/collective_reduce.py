"""Analysis-only fixture: an offloading function named like a stdlib one.

``reduce`` here is a collective that posts on the IKC channel, as
``repro.mpi.collectives.reduce`` reaches the offload path.
``DirectPicoDriver.fast_ioctl`` calls it by its bare name, imported
from nowhere outside the analysed tree, so the edge stands and PD015.1
must be reported; ``foreign_import`` calls ``functools.reduce`` and
must stay clean.  This file is parsed by the analyses, never imported
for execution.
"""


def reduce(task, value):
    """Combine ``value`` across ranks on the Linux side (offloads)."""
    return (yield from task.offload_syscall("reduce", value))


class DirectPicoDriver:
    """A Pico chassis whose fast path reaches the tree's ``reduce``."""

    def fast_ioctl(self, task, fd, arg):
        """Looks pure locally; offloads one call away (PD015.1)."""
        return (yield from reduce(task, arg))
