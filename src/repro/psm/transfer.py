"""PSM transfer protocols: eager (PIO) and rendezvous (SDMA + TIDs).

Rendezvous for a message of N bytes with window size W (section 2.2.1):

    sender                          receiver
    ------                          --------
    RTS(msg_id, total) --PIO-->     match against MQ / unexpected queue
                                    for up to ``prefetch`` windows ahead:
                                        ioctl(TID_UPDATE)  [syscall!]
    <--PIO-- CTS(msg_id, w, tids)
    writev(window w)  [syscall!]
    ...SDMA...         --wire-->    window w placed directly (TIDs)
                                    ioctl(TID_FREE)  [syscall, deferred]
                                    register/CTS next window
    (all windows complete)          (all windows arrived -> recv done)

Both syscall sites are exactly the operations the paper's PicoDriver ports
to the LWK.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Sequence, Set, Tuple

from ..errors import ReproError


def packet_checksum(kind: str, tag: object, nbytes: int, seq: object,
                    payload: object) -> int:
    """Deterministic integrity checksum over a packet's logical content.

    Computed by the sender when fault injection is active and verified
    by the receiver before the packet enters protocol processing; the
    fabric's corruption fault perturbs the stored value, modeling bit
    flips in flight.
    """
    return zlib.crc32(repr((kind, tag, nbytes, seq, payload)).encode())


@dataclass(frozen=True)
class Rts:
    """Ready-to-send control message."""

    msg_id: Tuple
    source: Tuple[int, int]          # sender EndpointAddress
    tag: object
    total: int
    payload: object = None


@dataclass(frozen=True)
class Cts:
    """Clear-to-send for one window."""

    msg_id: Tuple
    window: int
    offset: int
    length: int
    #: the window's TIDs as the receiver's TID_UPDATE returned them
    tids: Sequence[int]
    dest: Tuple[int, int]            # receiver EndpointAddress


def window_count(total: int, window_size: int) -> int:
    """Number of rendezvous windows for a message size."""
    if total <= 0:
        raise ReproError(f"bad rendezvous size {total}")
    return -(-total // window_size)


def window_extent(total: int, window_size: int, w: int) -> Tuple[int, int]:
    """(offset, length) of window ``w``."""
    offset = w * window_size
    if offset >= total:
        raise ReproError(f"window {w} beyond message of {total} bytes")
    return offset, min(window_size, total - offset)


@dataclass
class SendFlow:
    """Sender-side state of one rendezvous message."""

    msg_id: Tuple
    buffer: int                      # send buffer vaddr
    total: int
    windows: int
    request: object                  # MqRequest to complete
    #: windows whose SDMA completed at least once (re-CTS resubmissions
    #: under fault injection complete the same window twice)
    done_windows: Set[int] = field(default_factory=set)
    #: CTS packets seen (any window) — quiesces the sender's RTS watchdog
    cts_seen: int = 0
    #: all windows done and the send request completed
    finished: bool = False

    def window_complete(self, window: int) -> bool:
        """Account window ``window``'s SDMA completion; True when the
        message is done.  Completions are deduplicated, so a window
        retransmitted on a receiver's re-CTS is not counted twice."""
        self.done_windows.add(window)
        return len(self.done_windows) == self.windows


@dataclass
class RecvFlow:
    """Receiver-side state of one expected-receive message."""

    rts: Rts
    buffer: int                      # receive buffer vaddr
    request: object                  # MqRequest to complete
    windows: int
    next_register: int = 0
    arrived: int = 0
    #: window -> its TIDs as TID_UPDATE returned them (a ``range``)
    tids_by_window: Dict[int, Sequence[int]] = field(default_factory=dict)
    #: windows placed at least once (dedups re-CTS-triggered duplicates)
    arrived_windows: Set[int] = field(default_factory=set)
    #: corrupted expected-data packets seen (picks the typed error when
    #: the retransmit budget runs out)
    corrupt_seen: int = 0

    def all_arrived(self) -> bool:
        """True once every window has been placed."""
        return self.arrived == self.windows
