"""IRQ routing: device interrupts are handled on Linux CPUs.

McKernel does not handle device interrupts at all (section 3.3) — HFI
completion IRQs always land on a Linux OS core, even for transfers the
PicoDriver initiated.  The handler therefore competes with offloaded
syscall service for the same small pool of Linux CPUs.
"""

from __future__ import annotations

from typing import Callable

from ..hw.irq import irq_enter, irq_exit, tag_irq_generator
from ..params import Params
from ..sim import Resource, Simulator, Tracer


class InterruptController:
    """Dispatches IRQs onto the Linux OS-CPU pool."""

    def __init__(self, sim: Simulator, params: Params, os_cpus: Resource,
                 tracer: Tracer):
        self.sim = sim
        self.params = params
        self.os_cpus = os_cpus
        self.tracer = tracer

    def deliver(self, handler: Callable, *args) -> None:
        """Raise an IRQ: after delivery latency, run ``handler`` (a
        generator function) on a Linux CPU."""
        self.tracer.count("irq.delivered")
        self.sim.spawn(self._service(handler, args))

    def _service(self, handler, args):
        yield self.sim.timeout(self.params.nic.irq_latency)
        with self.os_cpus.request() as cpu:
            yield cpu
            t0 = self.sim.now
            yield self.sim.timeout(self.params.nic.irq_handler_cost)
            # top half runs in IRQ context; a bottom-half generator is
            # tagged per resume step so interleaved processes are not
            # mis-attributed while it is suspended
            irq_enter("linux")
            try:
                result = handler(*args)
            finally:
                irq_exit("linux")
            if result is not None and hasattr(result, "send"):
                yield from self.sim.call(
                    tag_irq_generator(result, "linux"))
            self.tracer.record("irq.service", self.sim.now - t0)
