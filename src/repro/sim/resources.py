"""FIFO multi-server resources and stores.

:class:`Resource` models ``capacity`` identical servers with a FIFO queue —
it is the primitive behind "4 Linux CPUs serving offloaded syscalls" and
"16 SDMA engines".  :class:`Store` is an unbounded message queue used by IKC
channels and NIC receive paths.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List

from .engine import Event, SimError, Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__, inlined: one Request per acquisition
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` servers, FIFO service order, no preemption."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    # -- API ---------------------------------------------------------------

    def request(self) -> Request:
        """Claim a server; the returned event triggers when granted."""
        users = self.users
        req = Request(self)
        if len(users) < self.capacity:
            users.append(req)
            # req.succeed(), inlined: a fresh request is never triggered
            req._triggered = True
            sim = self.sim
            heappush(sim._heap, (sim.now, next(sim._seq), req))
        else:
            self.queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Release a granted (or cancel a queued) request."""
        if req in self.users:
            self.users.remove(req)
            self._grant_next()
        else:
            try:
                self.queue.remove(req)
            except ValueError:
                raise SimError("release() of a request not held or queued")

    @property
    def count(self) -> int:
        """Number of servers currently in use."""
        return len(self.users)

    @property
    def queued(self) -> int:
        return len(self.queue)

    # -- internals ----------------------------------------------------------

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next item (immediately if available)."""
        evt = Event(self.sim)
        if self.items:
            evt.succeed(self.items.popleft())
        else:
            self._getters.append(evt)
        return evt

    def __len__(self) -> int:
        return len(self.items)
