"""Analysis & sanitizers: tooling that keeps the model honest.

Two cooperating layers guard the paper's central hazard — two kernels
concurrently mutating the same Linux driver state (section 3.3):

* :mod:`repro.analysis.ksan` — "KSan", a dynamic Eraser-style lockset
  race detector.  While the ``ksan`` slot of
  :data:`repro.config.PLANES` collects detectors (``planes(ksan=[])``
  or ``python -m repro sanitize``), every machine installs one per node
  heap and every :class:`~repro.hw.memory.SharedHeap` access is
  reported with its kernel, struct/field label and the set of
  :class:`~repro.core.sync.CrossKernelSpinLock` s held; any word written
  by both kernels whose candidate lockset goes empty is reported with
  full provenance (both access sites, sim time, lock holder history).

* :mod:`repro.analysis.lint` — the PicoDriver rule table, the one
  per-line ``# pd-ignore`` suppression pass and its PD100, and the one
  syntactic scan (stdlib ``ast`` only): raw-heap-access confinement and
  the opt-in planes' hook gating (PD005, PD007, PD011-PD013, PD016).

* :mod:`repro.analysis.vet` — "PicoVet", the one static command
  (``python -m repro vet``): it parses each module once, builds the one
  program model and runs every rule under one suppression verdict: the
  scan, and the model's checkers for lock discipline, process hygiene,
  layout guards (PD002-PD004), fast-path purity, lock order and waits
  under a lock (PD008, PD009, PD015.x).

* :mod:`repro.analysis.lockdep` — "PicoLockdep", cross-kernel
  lock-order analysis.  A runtime validator (``planes(lockdep=[])``)
  builds the observed lock-class dependency graph and reports
  declared-hierarchy violations (with the reverse nesting of an AB-BA),
  IRQ inversions and timed waits inside critical sections; the
  hierarchy's one order rule (:mod:`repro.core.lockclasses`) also
  drives PD008.  :func:`~repro.analysis.lockdep.lock_graph`
  (``python -m repro lockgraph``) reads the compile-time graph the
  dynamic edges are checked against off the PicoVet model.

``python -m repro sanitize <experiment>`` is the one dynamic command:
it re-runs an experiment with KSan, lockdep and a typed-error observer
installed together, and fails on a race, a lock-order hazard, or a
dynamic fact the static model does not contain
(:mod:`repro.analysis.cli`).
"""

from .ksan import HeapAccess, RaceDetector, RaceReport
from .lint import Finding, RULES
from .lockdep import (LockdepReport, LockdepValidator, LockGraph,
                      dynamic_edges, lock_graph)

__all__ = [
    "Finding", "HeapAccess", "LockGraph", "LockdepReport",
    "LockdepValidator", "RULES", "RaceDetector", "RaceReport",
    "dynamic_edges", "lock_graph",
]
