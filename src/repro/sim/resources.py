"""FIFO multi-server resources and stores.

:class:`Resource` models ``capacity`` identical servers with a FIFO queue —
it is the primitive behind "4 Linux CPUs serving offloaded syscalls" and
"16 SDMA engines".  :class:`Store` is an unbounded message queue used by IKC
channels and NIC receive paths.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from .engine import Event, SimError, Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
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
        # occupancy statistics (time-weighted)
        self._busy_area = 0.0
        self._queue_area = 0.0
        self._last_stamp = sim.now

    # -- API ---------------------------------------------------------------

    def request(self) -> Request:
        """Claim a server; the returned event triggers when granted."""
        users = self.users
        now = self.sim.now
        dt = now - self._last_stamp
        if dt > 0:  # _account, inlined
            self._busy_area += dt * len(users)
            self._queue_area += dt * len(self.queue)
            self._last_stamp = now
        req = Request(self)
        if len(users) < self.capacity:
            users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Release a granted (or cancel a queued) request."""
        self._account()
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

    def utilization(self) -> float:
        """Time-averaged busy-server fraction since simulator start."""
        self._account()
        elapsed = self.sim.now
        return self._busy_area / (elapsed * self.capacity) if elapsed else 0.0

    def mean_queue_length(self) -> float:
        """Time-averaged queue length since simulator start."""
        self._account()
        elapsed = self.sim.now
        return self._queue_area / elapsed if elapsed else 0.0

    # -- internals ----------------------------------------------------------

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()

    def _account(self) -> None:
        dt = self.sim.now - self._last_stamp
        if dt > 0:
            self._busy_area += dt * len(self.users)
            self._queue_area += dt * len(self.queue)
            self._last_stamp = self.sim.now


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
