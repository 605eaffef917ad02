"""Analysis & sanitizers: tooling that keeps the model honest.

Two cooperating layers guard the paper's central hazard — two kernels
concurrently mutating the same Linux driver state (section 3.3):

* :mod:`repro.analysis.ksan` — "KSan", a dynamic Eraser-style lockset
  race detector.  When enabled (``repro.config.ANALYSIS.race_detection``
  or ``python -m repro sanitize``) every :class:`~repro.hw.memory.SharedHeap`
  access is reported with its kernel, struct/field label and the set of
  :class:`~repro.core.sync.CrossKernelSpinLock` s held; any word written
  by both kernels whose candidate lockset goes empty is reported with
  full provenance (both access sites, sim time, lock holder history).

* :mod:`repro.analysis.lint` — a syntactic AST lint pass
  (``python -m repro lint``, stdlib ``ast`` only) enforcing the
  per-module half of the PicoDriver protocol: lock discipline,
  sim-process hygiene, layout-version guards, raw-heap-access
  confinement and the opt-in planes' hook gating (rules PD002...PD016
  + PD100, per-line ``# pd-ignore`` suppression).

* :mod:`repro.analysis.vet` — "PicoVet", the one interprocedural
  program model (``python -m repro vet``): fast-path purity, lock
  order and waits under a lock (rules PD008, PD009, PD015.x).

* :mod:`repro.analysis.lockdep` — "PicoLockdep", cross-kernel
  lock-order analysis.  A runtime validator
  (``repro.config.ANALYSIS.lockdep`` or ``python -m repro lockdep``)
  builds the observed lock-class dependency graph and reports order
  cycles, declared-hierarchy violations, IRQ inversions and timed
  waits inside critical sections; :func:`~repro.analysis.lockdep.lock_graph`
  (``python -m repro lockgraph``) reads the compile-time graph the
  dynamic edges are checked against off the PicoVet model.
"""

from .ksan import (ACTIVE_DETECTORS, HeapAccess, RaceDetector, RaceReport,
                   active_race_reports, reset_active_detectors)
from .lint import Finding, RULES, lint_paths, lint_source
from .lockdep import (ACTIVE_VALIDATORS, LockdepReport, LockdepValidator,
                      LockGraph, active_lockdep_reports, lock_graph,
                      reset_active_validators)

__all__ = [
    "ACTIVE_DETECTORS", "ACTIVE_VALIDATORS", "Finding", "HeapAccess",
    "LockGraph", "LockdepReport", "LockdepValidator", "RULES",
    "RaceDetector", "RaceReport", "active_lockdep_reports",
    "active_race_reports", "lint_paths", "lint_source", "lock_graph",
    "reset_active_detectors", "reset_active_validators",
]
