"""Analysis-only fixture: one case of each def or class shape the
per-function rules must still reach.

PD002 judges every ``def`` in a module, PD003 and PD004 every class,
wherever it sits: a ``def`` under a module-level ``if`` or ``try``, a
class nested in a function or in another class, and each of two
same-named closures in one function.  A lambda's body is no function's
code, so a release inside one releases nothing.  ``vet`` must report
all seven findings below; the file is parsed by the analyses, never
executed.
"""

from repro.core.picodriver import PicoDriver
from repro.core.structs import StructView

if __name__ != "__main__":
    def reach_under_if(lock, aspace):
        """PD002: the acquire has no release at all."""
        yield from lock.acquire("linux", aspace)

try:
    def reach_under_try(lock, aspace):
        """PD002: the release is not in a finally block."""
        yield from lock.acquire("linux", aspace)
        lock.release("linux")
except ImportError:
    pass


def reach_local_class():
    """The class lives in the function body."""

    class LocalReachPico:
        def fast_reach_poll(self, task):
            """PD003: a fast path that is not a generator."""
            return 0

    return LocalReachPico


class ReachHolder:
    """The PicoDriver class lives in another class's body."""

    class NestedReachPico(PicoDriver):
        def attach_reach(self, lwk):
            """PD004: no require_layout_version before the view."""
            self.view = StructView(self.layouts["sdma_state"], lwk.heap, 0)


def reach_twice(lock, aspace):
    """Two closures named ``body``; each leaks the lock (PD002)."""
    def body():
        yield from lock.acquire("linux", aspace)

    first = body()

    def body():
        yield from lock.acquire("mckernel", aspace)

    return first, body()


def reach_past_lambda(lock, aspace, undo):
    """PD002: the only release sits in a lambda, so none is in a finally."""
    yield from lock.acquire("linux", aspace)
    try:
        pass
    finally:
        undo[0] = lambda: lock.release("linux")
