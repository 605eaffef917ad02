"""Seeded fixtures for the PicoVet whole-program analysis tests.

``sleepy_fastpath`` and ``lock_order`` are *analysis-only* modules:
they are handed to ``vet``/``lockgraph`` as paths and parsed, never
executed.  ``sleepy_fastpath`` seeds fast-path sins hidden behind
cross-class call hops, which the whole-program PD015.x checkers must
catch and the per-module rules provably cannot; ``lock_order`` seeds an
AB-BA nesting (PD008, a lock-graph cycle) and a timed wait under a lock
(PD009).  ``collective_reduce`` and ``foreign_import`` are a pair: a
fast path reaching an offloading tree function named ``reduce`` (PD015.1)
and a fast path calling ``functools.reduce``, which must stay clean.
``rule_reach`` (analysis-only too) holds one ``def`` or class of each
shape PD002-PD004 must reach: under a module-level ``if`` or ``try``,
nested in a function or in another class, and two same-named closures.

``lockedge_rig`` is a *runnable* module: a miniature experiment that
takes a dynamic lock dependency edge between lock classes no shipped
source file mentions, so ``sanitize`` must fail containment and name
the missing edge.
"""
