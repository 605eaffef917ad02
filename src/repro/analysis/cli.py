"""Command-line drivers for the analysis layer.

``python -m repro sanitize <experiment> [<experiment>...]``
    Re-run one or more of the paper's experiments (or the ``chaos``,
    ``storage`` or ``flap`` smoke campaign) with every dynamic checker
    installed:
    the KSan race detector on every node's shared kernel heap, the
    lockdep validator on every machine, and an observer of every typed
    error constructed.
    Then judge the run three ways: KSan's races, lockdep's lock-order
    hazards, and whether every dynamic fact (lock dependency edge,
    acquired lock class, shared-heap access, typed-error construction)
    is contained in PicoVet's static over-approximation.  Exit status 1
    on a race, a hazard or an uncontained fact.

``python -m repro lockgraph [--dot] [paths...]``
    Read the compile-time lock-class graph off the PicoVet program
    model (default target: the installed ``repro`` tree).  ``--dot``
    emits Graphviz for the CI artifact.  Exit status 1 on a
    PD000/PD008/PD009 finding (lock order is the declared hierarchy's
    one rule, PD008), 2 on an unknown option or a path that does not
    exist.
"""

from __future__ import annotations

import importlib
import os
import sys
from functools import partial
from typing import Callable, Dict, List, Set, Tuple

from ..config import planes
from . import lockdep as lockdep_mod


def _smoke(module: str, runner: str) -> str:
    """Run ``repro.experiments.<module>.<runner>`` as a smoke campaign
    and return its report."""
    run = getattr(importlib.import_module(f"repro.experiments.{module}"),
                  runner)
    return run(smoke=True).render()


#: the smoke campaigns ``sanitize`` runs besides the paper's experiments:
#: the fault sweep reaches the IRQ-recovery and error paths, the storage
#: smoke the pxd fast and slow paths, and the flap campaign the guard
#: plane on the HFI fast path (breakers, gates, the suspend drill)
_SMOKES: Dict[str, Callable[[], str]] = {
    "chaos": partial(_smoke, "chaos", "run_chaos"),
    "storage": partial(_smoke, "storage", "run_storage"),
    "flap": partial(_smoke, "chaos", "run_flap"),
}


def _observe_errors(record: Set[Tuple[str, str]]):
    """A ``PLANES.observer``: attribute each constructed typed error to
    the nearest in-tree frame below the errors module."""
    marker = os.sep + "repro" + os.sep

    def observer(exc: BaseException) -> None:
        frame = sys._getframe(1)
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename.endswith("errors.py"):
                frame = frame.f_back
                continue
            if marker in filename and frame.f_code.co_name != "<module>":
                record.add((type(exc).__name__, frame.f_code.co_name))
            return

    return observer


def _access_contained(fact: Tuple[str, str, str, str], statics) -> bool:
    struct, fieldname, kernel, kind = fact
    for access in statics:
        if access.field != fieldname or access.kind != kind:
            continue
        if access.struct not in ("?", struct) and not access.inferred:
            continue
        if access.kernel not in ("?", kernel) and not access.inferred:
            continue
        return True
    return False


def _uncontained(detectors: list, validators: list,
                 errors: Set[Tuple[str, str]]
                 ) -> Tuple[str, List[List[str]]]:
    """Check that every dynamic fact is contained in the static model:
    a fact the model cannot see means the model lies, and every PD015.x
    verdict built on it is suspect.  Returns a one-line census of the
    dynamic facts and, per uncontained fact, its report lines."""
    from .vet_effects import Program
    program = Program.build()
    graph = lockdep_mod.lock_graph(program)
    missing: List[List[str]] = []

    # 1. lock facts: dependency edges and acquired classes
    edges = lockdep_mod.dynamic_edges(validators)
    for key, edge in sorted(edges.items()):
        if not graph.has_edge(*key):
            missing.append(
                [f"lock edge {key[0]} -> {key[1]} observed dynamically "
                 f"but missing from the static lock graph:"]
                + [f"  {line}" for line in edge.describe()])
    acquired = set().union(*(v.acquired_classes() for v in validators))
    for lock_class in sorted(acquired - set(graph.sites) - set(graph.ranks)):
        missing.append([f"lock class {lock_class} acquired dynamically "
                        f"but has no static acquisition site"])

    # 2. heap facts: KSan's sampled accesses
    statics = program.all_accesses()
    heap: Set[Tuple[str, str, str, str]] = set()
    for detector in detectors:
        for label, kernel, kind in detector.sampled_facts():
            if not label or label.startswith("lock:"):
                continue
            if "." in label:
                struct, fieldname = label.rsplit(".", 1)
            else:
                struct, fieldname = "?", label
            heap.add((struct, fieldname, kernel, kind))
    for fact in sorted(heap):
        if not _access_contained(fact, statics):
            struct, fieldname, kernel, kind = fact
            missing.append(
                [f"heap access {kind} {struct}.{fieldname} by {kernel} "
                 f"observed dynamically but matches no static access"])

    # 3. error facts: constructed typed errors
    for errname, funcname in sorted(errors):
        if (errname, funcname) not in program.error_sites:
            missing.append(
                [f"{errname} constructed in {funcname}() dynamically "
                 f"but vet knows no such construction site"])

    census = (f"dynamic facts: {len(edges)} lock edge(s), "
              f"{len(heap)} heap access pair(s), "
              f"{len(errors)} typed error(s)")
    return census, missing


def cmd_sanitize(argv: List[str],
                 commands: Dict[str, Callable[[], str]]) -> int:
    """Entry point for ``python -m repro sanitize``.

    ``commands`` is the experiment table of :mod:`repro.__main__`, to
    which the smoke campaigns of ``_SMOKES`` are added.  Each named
    experiment is re-run with the ``ksan``,
    ``lockdep`` and ``observer`` planes on, so every machine built
    along the way installs a
    :class:`~repro.analysis.ksan.RaceDetector` on its kernel heaps and a
    :class:`~repro.analysis.lockdep.LockdepValidator`, and every typed
    error constructed is recorded.
    """
    table = {**commands, **_SMOKES}
    if not argv:
        print("usage: python -m repro sanitize <experiment> [...]\n"
              f"experiments: {', '.join(table)}")
        return 2
    unknown = [name for name in argv if name not in table]
    if unknown:
        print(f"unknown experiment(s) {', '.join(unknown)}; choose from "
              f"{', '.join(table)}")
        return 2
    detectors: list = []
    validators: list = []
    errors: Set[Tuple[str, str]] = set()
    with planes(ksan=detectors, lockdep=validators,
                observer=_observe_errors(errors)):
        for name in argv:
            print(f"== sanitizing {name} ==")
            print(table[name]())

    print("\n== KSan verdict ==")
    races = [report for det in detectors for report in det.races]
    _print_reports(detectors, races)
    print(f"\nKSan: {len(races)} cross-kernel race(s) detected" if races
          else "KSan: no cross-kernel races detected")

    print("\n== lockdep verdict ==")
    hazards = [report for v in validators for report in v.reports]
    _print_reports(validators, hazards)
    print(f"\nlockdep: {len(hazards)} lock-order hazard(s)" if hazards
          else "lockdep: no lock-order hazards")

    print("\n== static model verdict ==")
    census, missing = _uncontained(detectors, validators, errors)
    print(census)
    for fact in missing:
        for line in fact:
            print(f"  {line}")
    print(f"\nstatic model: {len(missing)} uncontained fact(s)" if missing
          else "static model: every dynamic fact is contained in the "
          "static over-approximation")
    return 1 if races or hazards or missing else 0


def _print_reports(monitors: list, reports: list) -> None:
    """Print each monitor's one-line summary, then each report."""
    for monitor in monitors:
        print(monitor.summary())
    for report in reports:
        print()
        print(report.render())


def cmd_lockgraph(argv: List[str]) -> int:
    """Entry point for ``python -m repro lockgraph``."""
    want_dot = "--dot" in argv
    unknown = [a for a in argv if a.startswith("-") and a != "--dot"]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n"
              "usage: python -m repro lockgraph [--dot] [paths...]")
        return 2
    from .vet import path_error, program_paths
    paths = [a for a in argv if not a.startswith("-")]
    error = path_error(paths)
    if error is not None:
        print(error)
        return 2
    program, findings = program_paths(paths or None)
    graph = lockdep_mod.lock_graph(program)
    findings = [f for f in findings
                if f.code in ("PD000", "PD008", "PD009")]
    if want_dot:
        print(graph.to_dot())
        return 1 if findings else 0
    from ..core.lockclasses import REGISTRY
    print("declared hierarchy:")
    print(REGISTRY.hierarchy_table())
    print()
    print(graph.render())
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"lockgraph: {len(findings)} finding(s)")
        return 1
    print("lockgraph: hierarchy-clean")
    return 0
