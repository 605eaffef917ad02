"""PicoGuard: adaptive fast-path health management.

The guard plane gives the PicoDriver chassis the production machinery
its stateless recovery layer (PR 2) was missing, modeled on the px-fuse
``pxd_fastpath`` exemplars (SNIPPETS.md, ROADMAP open item 3):

* a per-path failover/failback **breaker**
  (:class:`~repro.guard.breaker.PathBreaker`) — sliding-window failure
  counters per SDMA engine or pxd replica (and for the offload path),
  an explicit CLOSED -> OPEN -> PROBING finite state machine with
  hysteresis and exponential probe backoff, consulted *at dispatch
  time* so a DOWN path routes to offload without per-request exception
  churn;
* **congestion watermarks**
  (:class:`~repro.guard.congestion.CongestionGate`) — a bounded
  ``qdepth`` of outstanding descriptors per engine with
  ``nr_congestion_on``/``nr_congestion_off`` high/low marks; above the
  high mark submitters queue in FIFO order (backpressure surfaced to
  the PSM send windows) instead of failing;
* **suspend/resume** (:meth:`~repro.guard.manager.GuardManager.suspend`)
  — quiesce the HFI device under live traffic: in-flight groups
  complete, new requests park on a queued-IO list, and ``resume()``
  replays them in arrival order.  (A pxd device is quiesced through its
  fast path's ``suspend`` word, ``PXD_IOCTL_SET_SUSPEND``.)

Each oracle records its breach when it happens, in the manager's
``violations``: an illegal breaker edge, a gate released below zero.

Everything is opt-in: a policy in the ``guard`` slot of
:data:`repro.config.PLANES` makes each machine built meanwhile install
a :class:`~repro.guard.manager.GuardManager` on its HFI driver (and
the gates on its SDMA engines) and on its pxd stack.  Each hook tests
only the installed ``guard``/``gate`` handle (lint rule PD013), so
without one no hook runs and every experiment is bit-identical to a
build without the plane.
"""

from .breaker import BREAKER_CLOSED, BREAKER_OPEN, BREAKER_PROBING, PathBreaker
from .congestion import CongestionGate
from .manager import GuardManager
from .policy import GuardPolicy

__all__ = [
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_PROBING",
    "CongestionGate", "GuardManager", "GuardPolicy", "PathBreaker",
]
