"""Deterministic discrete-event simulation core.

A small, SimPy-flavoured engine: an event queue ordered by (time, sequence),
generator-based processes that ``yield`` events, and FIFO multi-server
resources.  Everything above this package (hardware, kernels, MPI, apps)
expresses time purely through these primitives, which keeps runs
deterministic and unit-testable.
"""

from .engine import Event, Simulator, SimError, Timeout
from .process import AllOf, Process
from .resources import Request, Resource, Store
from .rng import RngFactory
from .trace import Tracer

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "Request",
    "Resource",
    "RngFactory",
    "SimError",
    "Simulator",
    "Store",
    "Timeout",
    "Tracer",
]
