"""Inter-Kernel Communication: the system-call delegation transport.

One offloaded syscall costs, on top of the Linux handler itself:

* request marshalling on the LWK core,
* an inter-processor interrupt to wake the Linux-side worker,
* *queueing for a Linux OS CPU* — the term that explodes when 32-64 ranks
  per node funnel driver calls through 4 cores (section 4.3),
* Linux-side dispatch into the proxy-process context, and
* response marshalling.
"""

from __future__ import annotations

from ..config import PLANES
from ..obs.spans import track_of
from ..params import Params
from ..sim import Event, Simulator, Tracer


class IkcChannel:
    """The IKC channel between one LWK instance and its host Linux."""

    def __init__(self, sim: Simulator, params: Params, linux,
                 tracer: Tracer):
        self.sim = sim
        self.params = params
        self.linux = linux
        self.tracer = tracer
        self.inflight = 0

    def call(self, proxy_task, name: str, args: tuple, cause=None):
        """Generator (runs in the LWK caller's context): delegate syscall
        ``name`` to Linux, executing it in ``proxy_task``'s context.

        ``cause`` (traced runs only) is the LWK-side offload span; the
        Linux-side service span flows from it across the IKC hop."""
        ikc = self.params.ikc
        yield from self.sim.delay(ikc.request_cost)
        done = Event(self.sim)
        self.inflight += 1
        self.tracer.count("ikc.calls")
        self.sim.spawn(self._serve(proxy_task, name, args, done, cause))
        try:
            result = yield done
        finally:
            self.inflight -= 1
        return result

    def _serve(self, proxy_task, name: str, args: tuple, done: Event,
               cause=None):
        """Linux-side service: wake, queue for an OS CPU, run, respond."""
        ikc = self.params.ikc
        span = PLANES.trace.begin_span(
            f"ikc.serve.{name}", track_of(self.linux), cat="offload",
            flow_from=cause) if PLANES.trace is not None else None
        try:
            yield from self.sim.delay(ikc.ipi_cost)
            queued_at = self.sim.now
            depth = self.linux.os_cpus.queued  # runnable proxies ahead of us
            with self.linux.os_cpus.request() as cpu:
                yield cpu
                wait = self.sim.now - queued_at
                if wait > 0:
                    self.tracer.record("ikc.cpu_wait", wait)
                # proxy context switch: cheap when a CPU was idle, expensive
                # when many proxies thrash the few OS CPUs (section 4.3)
                switch = ikc.context_switch_cost * min(
                    depth / self.linux.os_cpus.capacity, ikc.contention_cap)
                yield from self.sim.delay(ikc.dispatch_cost + switch)
                try:
                    ret = yield from self.linux.syscall(proxy_task, name,
                                                        *args)
                    exc = None
                except Exception as e:  # propagate to the LWK caller
                    ret, exc = None, e
                yield from self.sim.delay(ikc.response_cost)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        if exc is not None:
            done.fail(exc)
        else:
            done.succeed(ret)
