"""Analysis-only fixture: a fast path whose sins live two calls away.

``SleepyPicoDriver.fast_writev`` reaches ``rcu_synchronize`` through
``self._flush`` and then ``DrainRing.drain`` — one self-call hop plus
one constructor-typed-attribute hop into *another class*.  A per-class
self-call closure (the retired lint PD001 pass) can see neither the
sleep nor the IKC post behind ``OffloadChannel.kick``, and lint has no
interprocedural pass at all; the PD015.1/PD015.2 checkers must flag
both at the entry points.  This file is parsed by the analyses, never imported for
execution, so the undefined names inside the method bodies are fine.
"""


class DrainRing:
    """Holds the sleeping sin: ``drain`` waits for an RCU grace period."""

    def __init__(self, lwk):
        self.lwk = lwk

    def drain(self):
        """Quiesce the ring — blocks the caller for an unbounded time."""
        yield from rcu_synchronize(self.lwk)  # noqa: F821 — parsed only


class OffloadChannel:
    """Holds the offload sin: ``kick`` posts on the IKC channel."""

    def __init__(self, lwk):
        self.lwk = lwk

    def kick(self, task, payload):
        """Punt ``payload`` to the Linux side over IKC."""
        yield self.lwk.ikc.post(task, payload)


class SleepyPicoDriver:
    """A Pico chassis whose fast paths are only transitively impure."""

    def __init__(self, lwk):
        self.ring = DrainRing(lwk)
        self.channel = OffloadChannel(lwk)

    def fast_writev(self, task, fd, iov):
        """Looks pure locally; sleeps two calls deep (PD015.2)."""
        yield from self._flush(task)

    def _flush(self, task):
        """The innocent middleman between the entry and the sleep."""
        yield from self.ring.drain()

    def fast_ioctl(self, task, fd, arg):
        """Looks pure locally; offloads one class away (PD015.1)."""
        yield from self.channel.kick(task, arg)
