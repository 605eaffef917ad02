"""Analysis-only fixture: a fast path calling a name imported from the
standard library.

``TallyPicoDriver.fast_writev`` sums its iovec lengths with
``functools.reduce``.  ``collective_reduce`` (next to this file) defines
a module-level ``reduce`` that offloads; resolving the bare call by
name alone would link the two and report a false PD015.1 here.  The
name is imported from outside ``repro``, so the call is no edge to a
function of the analysed tree, and this file must stay clean under
every rule.
"""

from functools import reduce
from operator import add


class TallyPicoDriver:
    """A Pico chassis whose fast path only does arithmetic."""

    def fast_writev(self, task, fd, iov):
        """Pure: the stdlib ``reduce``, not the offloading one (and a
        generator, as every fast path must be: PD003)."""
        total = reduce(add, [length for _base, length in iov], 0)
        yield task.sim.timeout(0.0)
        return total
