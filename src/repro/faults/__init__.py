"""Deterministic fault-injection plane.

The paper keeps the Linux slow path around because the fast path only
handles the common case; this package exists to make the *uncommon*
case testable.  A :class:`FaultPlan` assigns firing probabilities to
the fault points wired into the hardware and driver models, and a
:class:`FaultInjector` draws those decisions from seeded, per-point RNG
streams so every chaos run is reproducible.  A plan in the ``faults``
slot of :data:`repro.config.PLANES` (``planes(faults=plan)``) makes
every machine built meanwhile install one injector on its fabric, HFIs
and block devices; each hook tests only its device's ``injector``
handle (lint rule PD007), so without one a hook costs an attribute
load and an ``is None`` branch.
"""

from .plan import FAULT_POINTS, FaultInjector, FaultPlan, ScheduledFault

__all__ = ["FAULT_POINTS", "FaultInjector", "FaultPlan", "ScheduledFault"]
