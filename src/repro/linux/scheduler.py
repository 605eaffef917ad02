"""Linux OS-core scheduling under proxy-process oversubscription.

The macro model folds the cost of running many runnable proxy processes
on few Linux cores into one constant (``IkcParams.context_switch_cost``).
This module contains the micro-model that *justifies* that constant: a
time-sliced core serving N runnable proxies, each request paying

* the direct context-switch cost (register/state swap, scheduler pick),
* a cache/TLB refill penalty after running someone else — a warmth model
  where the penalty grows with the number of distinct processes that ran
  since this proxy last did (capped at a full refill), and
* the actual handler work.

``effective_service_time`` runs the model and reports the mean per-request
wall cost; the ``sched.*`` rows of ``repro.experiments.report.CLAIMS``
check it across oversubscription levels, with the calibrated constant in
the derived regime at four proxies per core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..units import USEC


@dataclass(frozen=True)
class SchedModelParams:
    """Constants of the oversubscribed-core micro-model (KNL-flavored:
    slow in-order cores, small per-core caches)."""

    #: direct switch: save/restore + runqueue manipulation
    direct_switch: float = 6.0 * USEC
    #: full cache/TLB refill after a cold switch
    full_refill: float = 80.0 * USEC
    #: how many other processes it takes to fully evict a proxy's state
    eviction_span: int = 4


class OversubscribedCore:
    """One OS core running proxy processes round-robin.

    Requests arrive as (proxy id, handler seconds); the core serves them
    FIFO, charging switch + warmth costs.  Deterministic, no simulator
    needed — it is an analytical aid, not part of the hot path.
    """

    def __init__(self, params: SchedModelParams = SchedModelParams()):
        self.params = params
        self._last: int = -1
        self._since_ran: Dict[int, int] = {}
        self.busy_seconds = 0.0
        self.requests = 0

    def serve(self, proxy: int, handler_seconds: float) -> float:
        """Serve one request; returns its wall cost on the core."""
        p = self.params
        cost = handler_seconds
        if proxy != self._last:
            cost += p.direct_switch
            staleness = min(self._since_ran.get(proxy, p.eviction_span),
                            p.eviction_span)
            cost += p.full_refill * staleness / p.eviction_span
            for other in self._since_ran:
                self._since_ran[other] += 1
            self._since_ran[proxy] = 0
            self._last = proxy
        self.busy_seconds += cost
        self.requests += 1
        return cost

    @property
    def mean_service(self) -> float:
        return self.busy_seconds / self.requests if self.requests else 0.0


def effective_service_time(n_proxies: int, handler_seconds: float = 4e-6,
                           requests_per_proxy: int = 32,
                           params: SchedModelParams = SchedModelParams()
                           ) -> float:
    """Mean per-request cost with ``n_proxies`` interleaving round-robin
    on one core — the worst (and, under saturation, typical) interleave."""
    core = OversubscribedCore(params)
    for _round in range(requests_per_proxy):
        for proxy in range(n_proxies):
            core.serve(proxy, handler_seconds)
    return core.mean_service


def derived_switch_cost(n_proxies: int,
                        handler_seconds: float = 4e-6,
                        params: SchedModelParams = SchedModelParams()
                        ) -> float:
    """The per-dispatch disturbance the macro model should charge at this
    oversubscription level: everything beyond the handler itself."""
    return (effective_service_time(n_proxies, handler_seconds,
                                   params=params) - handler_seconds)
