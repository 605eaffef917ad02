"""IRQ context tracking for the device models.

McKernel takes no device interrupts (section 3.3): completion and error
IRQs always run on Linux CPUs.  The hardware and interrupt layers run
every top half through :func:`dispatch_irq`, which brackets it with
:func:`irq_enter`/:func:`irq_exit`, so lockdep
(:mod:`repro.analysis.lockdep`) can attribute a lock taken inside to
IRQ context.  The counters are plain module state: the
discrete-event simulator is single-threaded, and handler generators are
tagged per resume step (:func:`tag_irq_generator`) precisely because
other processes interleave between their yields.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..errors import ReproError

_IRQ_DEPTH: Dict[str, int] = {}


def irq_enter(kernel: str = "linux") -> None:
    """Enter IRQ context on ``kernel`` (top-half dispatch)."""
    _IRQ_DEPTH[kernel] = _IRQ_DEPTH.get(kernel, 0) + 1


def irq_exit(kernel: str = "linux") -> None:
    """Leave IRQ context on ``kernel``."""
    depth = _IRQ_DEPTH.get(kernel, 0)
    if depth <= 0:
        raise ReproError(f"irq_exit on {kernel} without irq_enter")
    _IRQ_DEPTH[kernel] = depth - 1


def dispatch_irq(handler: Callable[..., Any], *args) -> Any:
    """Run the top half ``handler(*args)`` and return its result.

    The top half runs in IRQ context on a Linux CPU (sec. 3.3), so
    lockdep attributes any lock taken inside to irq context.
    """
    irq_enter("linux")
    try:
        return handler(*args)
    finally:
        irq_exit("linux")


def in_irq(kernel: str = "linux") -> bool:
    """True while ``kernel`` is executing an IRQ handler."""
    return _IRQ_DEPTH.get(kernel, 0) > 0


def tag_irq_generator(gen, kernel: str = "linux"):
    """Drive ``gen`` with IRQ context marked around every resume step.

    An IRQ handler that is itself a simulation process (the completion
    bottom halves) suspends at every ``yield``; while it is suspended,
    unrelated processes run.  A plain enter/exit bracket around the
    whole process would mis-tag those — so the wrapper enters IRQ
    context only for the instants the handler's own frames execute.
    """
    to_send = None
    to_throw = None
    while True:
        irq_enter(kernel)
        try:
            if to_throw is not None:
                exc, to_throw = to_throw, None
                target = gen.throw(exc)
            else:
                target = gen.send(to_send)
        except StopIteration as stop:
            return stop.value
        finally:
            irq_exit(kernel)
        try:
            to_send = yield target
        except BaseException as exc:  # forwarded into the handler
            to_throw = exc
