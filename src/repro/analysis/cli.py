"""Command-line drivers for the analysis layer.

``python -m repro lint [--rules] [paths...]``
    Run the PicoDriver protocol lint (default target: the installed
    ``repro`` package source).  Exit status 1 if findings remain.

``python -m repro sanitize <experiment> [<experiment>...]``
    Re-run one or more of the paper's experiments with the KSan race
    detector installed on every node's shared kernel heap, then print
    each detector's verdict.  Exit status 1 if any race was found.

``python -m repro lockdep <experiment> [<experiment>...]``
    Re-run experiments (plus the ``chaos`` smoke sweep) with the
    lockdep validator installed, print every lock-order hazard, and
    cross-check the run: every dynamically observed lock dependency
    must appear in the static lock graph.  Exit status 1 on hazards or
    on a dynamic edge the static pass missed.

``python -m repro lockgraph [--dot] [paths...]``
    Read the compile-time lock-class graph off the PicoVet program
    model (default target: the installed ``repro`` tree).  ``--dot``
    emits Graphviz for the CI artifact.  Exit status 1 on cycles,
    hierarchy violations, or PD008/PD009 findings.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..config import planes
from . import lockdep as lockdep_mod
from .lint import default_lint_root, lint_paths, rules_table


def cmd_lint(argv: List[str]) -> int:
    """Entry point for ``python -m repro lint``."""
    if "--rules" in argv:
        print(rules_table())
        return 0
    args = list(argv)
    jobs = 1
    if "--jobs" in args:
        idx = args.index("--jobs")
        if idx + 1 >= len(args):
            print("--jobs needs a worker count\n"
                  "usage: python -m repro lint [--rules] [--jobs N] "
                  "[paths...]")
            return 2
        try:
            jobs = max(1, int(args[idx + 1]))
        except ValueError:
            print(f"--jobs: not a number: {args[idx + 1]!r}")
            return 2
        del args[idx:idx + 2]
    unknown = [a for a in args if a.startswith("-") and a != "--rules"]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n"
              "usage: python -m repro lint [--rules] [--jobs N] "
              "[paths...]")
        return 2
    paths = [a for a in args if not a.startswith("-")] or [default_lint_root()]
    findings = lint_paths(paths, jobs=jobs)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("pd-lint: clean")
    return 0


def cmd_sanitize(argv: List[str],
                 commands: Dict[str, Callable[[], str]]) -> int:
    """Entry point for ``python -m repro sanitize``.

    ``commands`` is the experiment table of :mod:`repro.__main__`; each
    named experiment is re-run with the ``ksan`` plane on, so every
    machine built along the way installs a
    :class:`~repro.analysis.ksan.RaceDetector` on its kernel heaps.
    """
    if not argv:
        print("usage: python -m repro sanitize <experiment> [...]\n"
              f"experiments: {', '.join(commands)}")
        return 2
    unknown = [name for name in argv if name not in commands]
    if unknown:
        print(f"unknown experiment(s) {', '.join(unknown)}; choose from "
              f"{', '.join(commands)}")
        return 2
    detectors: list = []
    with planes(ksan=detectors):
        for name in argv:
            print(f"== sanitizing {name} ==")
            print(commands[name]())
    print("\n== KSan verdict ==")
    for detector in detectors:
        print(detector.summary())
    reports = [report for det in detectors for report in det.races]
    for report in reports:
        print()
        print(report.render())
    if reports:
        print(f"\nKSan: {len(reports)} cross-kernel race(s) detected")
        return 1
    print("KSan: no cross-kernel races detected")
    return 0


def _chaos_smoke() -> str:
    """The ``chaos`` pseudo-experiment of ``python -m repro lockdep``:
    the fault-injection smoke sweep, which exercises the IRQ-recovery
    and error paths the figure experiments never reach."""
    from ..experiments.chaos import run_chaos
    return run_chaos("pingpong", smoke=True).render()


def cmd_lockdep(argv: List[str],
                commands: Dict[str, Callable[[], str]]) -> int:
    """Entry point for ``python -m repro lockdep``.

    Re-runs the named experiments with the ``lockdep`` plane on, so
    every machine installs a
    :class:`~repro.analysis.lockdep.LockdepValidator`, then verifies
    dynamic/static consistency: a dependency edge observed at runtime
    that the static pass cannot see means the static view lies.
    """
    table = dict(commands)
    table.setdefault("chaos", _chaos_smoke)
    if not argv:
        print("usage: python -m repro lockdep <experiment> [...]\n"
              f"experiments: {', '.join(table)}")
        return 2
    unknown = [name for name in argv if name not in table]
    if unknown:
        print(f"unknown experiment(s) {', '.join(unknown)}; choose from "
              f"{', '.join(table)}")
        return 2
    validators: list = []
    with planes(lockdep=validators):
        for name in argv:
            print(f"== lockdep {name} ==")
            print(table[name]())
    print("\n== lockdep verdict ==")
    for validator in validators:
        print(validator.summary())
    reports = [report for v in validators for report in v.reports]
    for report in reports:
        print()
        print(report.render())
    from .vet_effects import Program
    graph = lockdep_mod.lock_graph(Program.build())
    missing = [edge for key, edge
               in sorted(lockdep_mod.dynamic_edges(validators).items())
               if not graph.has_edge(*key)]
    if missing:
        print("\ndynamic edges missing from the static lock graph "
              "(the static pass is blind to them):")
        for edge in missing:
            for line in edge.describe():
                print(f"  {line}")
    if reports or missing:
        print(f"\nlockdep: {len(reports)} hazard(s), "
              f"{len(missing)} unexplained dynamic edge(s)")
        return 1
    print("lockdep: no lock-order hazards; every dynamic dependency "
          "edge is in the static graph")
    return 0


def cmd_lockgraph(argv: List[str]) -> int:
    """Entry point for ``python -m repro lockgraph``."""
    want_dot = "--dot" in argv
    unknown = [a for a in argv if a.startswith("-") and a != "--dot"]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n"
              "usage: python -m repro lockgraph [--dot] [paths...]")
        return 2
    from .vet import vet_paths
    program, findings = vet_paths([a for a in argv if not a.startswith("-")]
                                  or None)
    graph = lockdep_mod.lock_graph(program)
    findings = [f for f in findings
                if f.code in ("PD000", "PD008", "PD009")]
    bad = (bool(findings) or bool(graph.cycles())
           or bool(graph.hierarchy_violations()))
    if want_dot:
        print(graph.to_dot())
        return 1 if bad else 0
    from ..core.lockclasses import REGISTRY
    print("declared hierarchy:")
    print(REGISTRY.hierarchy_table())
    print()
    print(graph.render())
    for finding in findings:
        print(finding.render())
    if bad:
        print(f"lockgraph: {len(findings)} finding(s), "
              f"{len(graph.cycles())} cycle(s), "
              f"{len(graph.hierarchy_violations())} hierarchy "
              f"violation(s)")
        return 1
    print("lockgraph: acyclic and hierarchy-clean")
    return 0
