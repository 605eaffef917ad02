"""Analysis-only fixture: the engine's inline join and detached spawn.

``JoinedPicoDriver.fast_writev`` sleeps through ``yield from
self.sim.call(self._settle(task))``: the child runs in the caller's
frame, so its sleep is the fast path's own (PD015.2).  ``fast_poll``
hands ``_watch`` to ``self.sim.spawn(...)``, a spawn edge: the watcher
runs in the spawner's context, but on its own time.  This file is
parsed by the analyses, never imported for execution, so the undefined
names inside the method bodies are fine.
"""


class JoinedPicoDriver:
    """A Pico chassis that joins one child inline and detaches another."""

    def __init__(self, sim):
        self.sim = sim

    def fast_writev(self, task, fd, iov):
        """Looks pure locally; sleeps one inline join deep (PD015.2)."""
        yield from self.sim.call(self._settle(task))

    def _settle(self, task):
        """Runs in ``fast_writev``'s frame."""
        yield from rcu_synchronize(task)  # noqa: F821 — parsed only

    def fast_poll(self, task, fd):
        """Starts a detached watcher, then returns."""
        self.sim.spawn(self._watch(task))
        yield self.sim.event()

    def _watch(self, task):
        """The detached watcher: reached through a spawn edge."""
        yield self.sim.event()
