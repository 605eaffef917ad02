"""PicoVet: the one static command over the PicoDriver protocol rules.

``python -m repro vet [--rules] [--dot] [--json] [paths...]``
    Parse every module under the installed ``repro`` tree (or the given
    paths) once, build the whole-program model over them, run the
    program rules of :mod:`repro.analysis.vet_checkers` (PD002-PD004,
    PD008, PD009, PD015.x) and the syntactic scan of
    :mod:`repro.analysis.lint` (PD005 and the gating rules) and print
    the findings.  ``--rules`` prints the rule table instead, ``--dot``
    the Graphviz call graph, ``--json`` the per-function context +
    transitive-effect summaries (both for the CI artifacts).  Exit
    status 1 if findings remain, 2 on an unknown option or a path that
    does not exist.

Suppressions: a ``# pd-ignore`` (every rule) or ``# pd-ignore[PD015.5]``
(``PD015`` covers the whole family) on a finding's anchor line silences
it.  Each file's comments are judged once, against every rule's
findings on that file, so a comment that suppresses nothing is one
PD100 whichever rule it names.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Tuple

from .lint import Finding, judge_suppressions, lint_module, rules_table
from .vet_checkers import run_checkers
from .vet_effects import Program


def vet_paths(paths: Optional[List[str]] = None
              ) -> Tuple[Program, List[Finding]]:
    """Build the program model and run every rule on every module;
    returns the model and the findings its suppressions leave standing
    (plus PD100 for each suppression that silences nothing)."""
    program = Program.build(paths)
    return program, _judged(program, lint_module)


def program_paths(paths: Optional[List[str]] = None
                  ) -> Tuple[Program, List[Finding]]:
    """The program-rule half of :func:`vet_paths`: build the model and
    run only the program checkers (PD000, PD002-PD004, PD008, PD009,
    PD015.x), judging each file's suppressions against their findings
    alone."""
    program = Program.build(paths)
    return program, _judged(program, lambda module: [])


def _judged(program: Program, lint: Callable[..., List[Finding]]
            ) -> List[Finding]:
    """The program checkers' findings plus ``lint(module)`` for each
    parsed module, judged against each file's suppressions once."""
    by_path: Dict[str, List[Finding]] = {}
    for finding in run_checkers(program):
        by_path.setdefault(finding.path, []).append(finding)
    kept: List[Finding] = []
    for module in program.modules:
        found = by_path.get(module.path, [])
        if not module.ok:
            kept.extend(found)          # PD000: there is nothing to judge
            continue
        found.extend(lint(module))
        kept.extend(judge_suppressions(module.path, module.source, found))
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.code))


def path_error(paths: List[str]) -> Optional[str]:
    """The one-line usage error naming the ``paths`` that do not exist,
    or None when they all do."""
    missing = [p for p in paths if not os.path.exists(p)]
    return (f"no such file or directory: {', '.join(missing)}" if missing
            else None)


_USAGE = "usage: python -m repro vet [--rules] [--dot] [--json] [paths...]"


def cmd_vet(argv: List[str]) -> int:
    """Entry point for ``python -m repro vet``."""
    unknown = [a for a in argv if a.startswith("-")
               and a not in ("--rules", "--dot", "--json")]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n{_USAGE}")
        return 2
    if "--rules" in argv:
        print(rules_table())
        return 0
    paths = [a for a in argv if not a.startswith("-")]
    error = path_error(paths)
    if error is not None:
        print(error)
        return 2
    program, findings = vet_paths(paths or None)
    if "--dot" in argv:
        print(program.to_dot())
        return 1 if findings else 0
    if "--json" in argv:
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
