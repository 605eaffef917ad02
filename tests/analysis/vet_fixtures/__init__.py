"""Seeded fixtures for the PicoVet whole-program analysis tests.

``sleepy_fastpath`` and ``lock_order`` are *analysis-only* modules:
they are handed to ``vet``/``lint``/``lockgraph`` as paths and parsed,
never executed.  ``sleepy_fastpath`` seeds fast-path sins hidden behind
cross-class call hops, which the whole-program PD015.x checkers must
catch and the local lint rules provably cannot; ``lock_order`` seeds an
AB-BA nesting (PD008, a lock-graph cycle) and a timed wait under a lock
(PD009).

``lockedge_rig`` is a *runnable* module: a miniature experiment that
takes a dynamic lock dependency edge between lock classes no shipped
source file mentions, so ``vet --crosscheck`` must fail containment
and name the missing edge.
"""
