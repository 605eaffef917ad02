"""PSM matched queues: tag matching, posted and unexpected queues.

Matching follows the MQ rules: receives match on (source, tag) with
wildcards, in posted order; messages that arrive before a matching receive
is posted land on the unexpected queue and are matched retroactively.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional, Tuple

from ..errors import ReproError
from ..sim import Event, Simulator

#: wildcard for source or tag
ANY = None


@dataclass(frozen=True)
class TagMatcher:
    """(source, tag) selector with wildcards."""

    source: Optional[Tuple[int, int]] = ANY   # EndpointAddress tuple
    tag: Optional[object] = ANY

    def matches(self, source: Tuple[int, int], tag: object) -> bool:
        """True if (source, tag) satisfies this selector."""
        if self.source is not ANY and self.source != source:
            return False
        if self.tag is not ANY and self.tag != tag:
            return False
        return True


class MqRequest(Event):
    """One receive (or send) request, and its own completion event: the
    value, the request (``got = yield req.event``), is read back, not
    stored, so a finished request does not refer to itself."""

    __slots__ = ("kind", "matcher", "buffer", "source", "tag", "nbytes",
                 "payload")

    _value = property(lambda self: self, lambda self, _value: None)
    #: the completion event: the request itself
    event = property(lambda self: self)

    def __init__(self, sim: Simulator, kind: str, matcher: Optional[TagMatcher]
                 = None, buffer: Optional[Tuple[int, int]] = None):
        # Event.__init__, inlined (two requests per message), but for the
        # value
        self.sim = sim
        self.callbacks = []
        self._exc = None
        self._triggered = self._processed = False
        self.kind = kind                  # "recv" | "send"
        self.matcher = matcher
        self.buffer = buffer              # (vaddr, length) or None
        self.source: Optional[Tuple[int, int]] = None
        self.tag: object = None
        self.nbytes: int = 0
        self.payload: Any = None

    @property
    def done(self) -> bool:
        return self._triggered

    def complete(self, source, tag, nbytes, payload=None) -> None:
        """Finish the request and trigger its completion event."""
        if self._triggered:
            raise ReproError("request completed twice")
        self.source = source
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.succeed()


@dataclass
class UnexpectedMessage:
    """Arrived data with no posted receive yet."""

    source: Tuple[int, int]
    tag: object
    nbytes: int
    payload: Any = None
    #: for rendezvous: the sender's RTS context so the receive side can
    #: start the expected-receive protocol once a buffer exists
    rts: Any = None


class MatchedQueue:
    """Posted-receive and unexpected queues for one endpoint."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.posted: Deque[MqRequest] = deque()
        self.unexpected: Deque[UnexpectedMessage] = deque()

    # -- receive side -----------------------------------------------------

    def post_recv(self, matcher: TagMatcher,
                  buffer: Optional[Tuple[int, int]] = None) -> Tuple[MqRequest,
                                                                     Optional[UnexpectedMessage]]:
        """Post a receive; returns (request, matched unexpected message or
        None).  The caller drives the data path for an unexpected match."""
        req = MqRequest(self.sim, "recv", matcher, buffer)
        for i, msg in enumerate(self.unexpected):
            if matcher.matches(msg.source, msg.tag):
                del self.unexpected[i]
                return req, msg
        self.posted.append(req)
        return req, None

    # -- arrival side ---------------------------------------------------------

    def match_arrival(self, source, tag) -> Optional[MqRequest]:
        """Find and claim the oldest posted receive matching an arrival."""
        for i, req in enumerate(self.posted):
            if req.matcher.matches(source, tag):
                del self.posted[i]
                return req
        return None

    def add_unexpected(self, msg: UnexpectedMessage) -> None:
        """Park an arrival that matched no posted receive."""
        self.unexpected.append(msg)

    # -- introspection -------------------------------------------------------------

    def counts(self) -> Tuple[int, int]:
        """(posted, unexpected) queue lengths."""
        return len(self.posted), len(self.unexpected)
