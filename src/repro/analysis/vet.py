"""PicoVet: whole-program effect & context analysis for PicoDriver.

``python -m repro vet [--dot] [--json] [paths...]``
    Build the whole-program model over the installed ``repro`` tree (or
    the given paths), run the checkers (PD008, PD009, PD015.x) and print
    the findings.
    ``--dot`` emits the Graphviz call graph instead, ``--json`` the
    per-function context + transitive-effect summaries (both for the CI
    artifacts).  Exit status 1 if findings remain.

``python -m repro vet --crosscheck <fig4|chaos> [--smoke]``
    Re-run the named experiment with KSan, lockdep and the typed-error
    observer enabled, then assert that every *dynamic* fact is
    contained in the *static* over-approximation — the same
    dynamic ⊆ static contract as ``python -m repro lockdep``, extended
    to three fact families:

    * every dynamically observed lock dependency edge is in the static
      lock graph, and every acquired lock class has a static
      acquisition site;
    * every shared-heap access KSan sampled (struct.field, kernel,
      read/write) matches a statically inferred access — attribution
      the scanner could only infer (``inferred``/``?``) matches as a
      wildcard;
    * every typed error constructed at runtime has a static
      construction site in the same function.

    Exit status 1 names every uncontained fact: a dynamic fact the
    static model cannot see means the model lies, and every PD015.x
    verdict built on it is suspect.

Suppressions work exactly like lint: a ``# pd-ignore[PD015.5]`` on the
finding's anchor line silences it (``PD015`` covers the whole family),
and a stale suppression of a vet-owned id (``lint.VET_CODES``) is
reported as PD100 by ``vet`` itself (``lint`` leaves those ids to the
tool of record).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import astcache
from .cli import _chaos_smoke
from .lint import (Finding, _comment_tokens, _IGNORE_RE, _suppressed,
                   code_matches, vet_owned)
from .vet_checkers import run_checkers
from .vet_effects import HeapAccess, Program


def vet_paths(paths: Optional[List[str]] = None
              ) -> Tuple[Program, List[Finding]]:
    """Build the program model and run every checker; returns the model
    and the unsuppressed findings (plus PD100 for stale vet ignores)."""
    program = Program.build(paths)
    raw = run_checkers(program)
    kept: List[Finding] = []
    by_file: Dict[str, List[Finding]] = {}
    for finding in raw:
        by_file.setdefault(finding.path, []).append(finding)
        if not _file_suppressed(finding):
            kept.append(finding)
    kept.extend(_stale_vet_suppressions(program, by_file))
    return program, sorted(kept, key=lambda f: (f.path, f.line, f.col,
                                                f.code))


def _file_suppressed(finding: Finding) -> bool:
    try:
        module = astcache.parse_module(finding.path)
    except OSError:
        return False
    return _suppressed(module.source.splitlines(), finding)


def _stale_vet_suppressions(program: Program,
                            by_file: Dict[str, List[Finding]]
                            ) -> List[Finding]:
    """PD100 for the vet-owned ids: vet is the tool of record for its
    own rules, so it — not lint — decides whether a ``pd-ignore``
    listing one still suppresses anything."""
    out: List[Finding] = []
    seen: Set[str] = set()
    for fn in program.functions.values():
        seen.add(fn.path)
    for path in sorted(seen):
        try:
            module = astcache.parse_module(path)
        except OSError:
            continue
        found: Dict[int, Set[str]] = {}
        for finding in by_file.get(path, []):
            found.setdefault(finding.line, set()).add(finding.code)
        for lineno, col, comment in _comment_tokens(module.source):
            match = _IGNORE_RE.search(comment)
            if match is None or match.group(1) is None:
                continue
            listed = {c.strip() for c in match.group(1).split(",")
                      if c.strip()}
            stale = sorted(
                c for c in listed
                if vet_owned(c)
                and not any(code_matches(code, c)
                            for code in found.get(lineno, ())))
            if stale:
                out.append(Finding(
                    path, lineno, col + match.start(), "PD100",
                    f"'# pd-ignore[{', '.join(stale)}]' suppresses "
                    f"nothing: no such vet finding on this line"))
    return out


# --- crosscheck: dynamic facts ⊆ static over-approximation -------------------

def _default_table(commands: Optional[Dict[str, Callable[[], str]]]
                   ) -> Dict[str, Callable[[], str]]:
    table: Dict[str, Callable[[], str]] = dict(commands or {})
    if "fig4" not in table:
        def _fig4() -> str:
            from ..experiments.fig4 import run_fig4
            return run_fig4().render()
        table["fig4"] = _fig4
    table.setdefault("chaos", _chaos_smoke)
    return table


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
        return

    return observer


def _access_contained(fact: Tuple[str, str, str, str],
                      statics: List[HeapAccess]) -> bool:
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


def crosscheck(name: str,
               commands: Optional[Dict[str, Callable[[], str]]] = None
               ) -> int:
    """Run experiment ``name`` with every dynamic checker enabled and
    assert dynamic ⊆ static.  Returns the exit status."""
    from ..config import planes
    from . import lockdep as lockdep_mod

    table = _default_table(commands)
    if name not in table:
        print(f"unknown experiment '{name}'; choose from "
              f"{', '.join(sorted(table))}")
        return 2

    dynamic_errors: Set[Tuple[str, str]] = set()
    detectors: list = []
    validators: list = []
    with planes(ksan=detectors, lockdep=validators,
                observer=_observe_errors(dynamic_errors)):
        print(f"== vet crosscheck: {name} ==")
        print(table[name]())

    program = Program.build()
    graph = lockdep_mod.lock_graph(program)
    failures: List[str] = []
    fact_count = 0

    # 1. lock facts: dependency edges and acquired classes
    edges = lockdep_mod.dynamic_edges(validators)
    for key, edge in sorted(edges.items()):
        if not graph.has_edge(*key):
            fact_count += 1
            failures.append(
                f"lock edge {key[0]} -> {key[1]} observed dynamically "
                f"but missing from the static lock graph:")
            failures.extend(f"  {line}" for line in edge.describe())
    static_classes = set(graph.sites) | set(graph.ranks)
    for validator in validators:
        for lock_class in sorted(validator.acquired_classes()):
            if lock_class not in static_classes:
                fact_count += 1
                failures.append(
                    f"lock class {lock_class} acquired dynamically but "
                    f"has no static acquisition site")

    # 2. heap facts: KSan's sampled accesses
    statics = program.all_accesses()
    dynamic_heap: Set[Tuple[str, str, str, str]] = set()
    for detector in detectors:
        for state in detector._words.values():
            for (kernel, kind), access in state.samples.items():
                label = access.label
                if not label or label.startswith("lock:"):
                    continue
                if "." in label:
                    struct, fieldname = label.rsplit(".", 1)
                else:
                    struct, fieldname = "?", label
                dynamic_heap.add((struct, fieldname, kernel, kind))
    for fact in sorted(dynamic_heap):
        if not _access_contained(fact, statics):
            struct, fieldname, kernel, kind = fact
            fact_count += 1
            failures.append(
                f"heap access {kind} {struct}.{fieldname} by {kernel} "
                f"observed dynamically but matches no static access")

    # 3. error facts: constructed typed errors
    for errname, funcname in sorted(dynamic_errors):
        if (errname, funcname) not in program.error_sites:
            fact_count += 1
            failures.append(
                f"{errname} constructed in {funcname}() dynamically "
                f"but vet knows no such construction site")

    print("\n== vet crosscheck verdict ==")
    print(f"dynamic facts: "
          f"{len(edges)} lock edge(s), "
          f"{len(dynamic_heap)} heap access pair(s), "
          f"{len(dynamic_errors)} typed error(s)")
    if failures:
        print("dynamic facts missing from the static "
              "over-approximation:")
        for line in failures:
            print(f"  {line}")
        print(f"\nvet crosscheck: {fact_count} uncontained fact(s)")
        return 1
    print("vet crosscheck: every dynamic fact is contained in the "
          "static over-approximation")
    return 0


# --- CLI ---------------------------------------------------------------------

_USAGE = ("usage: python -m repro vet [--dot] [--json] [paths...]\n"
          "       python -m repro vet --crosscheck <fig4|chaos>")


def cmd_vet(argv: List[str],
            commands: Optional[Dict[str, Callable[[], str]]] = None) -> int:
    """Entry point for ``python -m repro vet``."""
    args = list(argv)
    if "--crosscheck" in args:
        idx = args.index("--crosscheck")
        if idx + 1 >= len(args):
            print(_USAGE)
            return 2
        # --smoke is accepted for symmetry with the chaos CLI; the
        # crosscheck always runs chaos in smoke mode
        return crosscheck(args[idx + 1], commands)
    want_dot = "--dot" in args
    want_json = "--json" in args
    unknown = [a for a in args if a.startswith("-")
               and a not in ("--dot", "--json")]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n{_USAGE}")
        return 2
    paths = [a for a in args if not a.startswith("-")]
    program, findings = vet_paths(paths or None)
    if want_dot:
        print(program.to_dot())
        return 1 if findings else 0
    if want_json:
        print(json.dumps(program.json_summary(), indent=2,
                         sort_keys=True))
        return 1 if findings else 0
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    functions = len(program.functions)
    entries = len(program.entry_points())
    print(f"pd-vet: clean ({functions} functions, {entries} fast-path "
          f"entry point(s))")
    return 0
