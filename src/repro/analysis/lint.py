"""The PicoDriver rule table, findings, suppressions and the one
syntactic scan.

The paper's porting methodology (sections 3.1-3.4) is a *protocol*:
shared locks must be released on every path, simulation processes must
actually be generators, DWARF layouts must be version-checked before
use, raw shared-heap word access is confined to the blessed accessor
modules, and every opt-in plane's hooks sit behind a test of the
handle that plane installed.
Amani et al. ("Automatic Verification of Message-Based Device Drivers")
show this class of driver-protocol property is statically checkable.
Every rule shares this module's table (:data:`RULES`), :class:`Finding`
and suppression verdict (:func:`judge_suppressions`).  Most rules are
queries over PicoVet's one program model
(:mod:`repro.analysis.vet_checkers`: PD002-PD004 over each function's
and class's digest, PD008, PD009 and PD015.x over the call graph);
:func:`lint_module` is the one syntactic scan, for the rules that must
also see module-level code, class bodies and lambdas.
``python -m repro vet`` runs both over each parsed file and judges the
file's suppressions once, against every rule's findings.

The scan's rules (each finding carries a fix-it hint):

=======  ==============================================================
PD005    raw heap access: no ``heap.read_u``/``write_u``/``read``/
         ``write`` in ``repro/core`` outside ``structs.py``/``sync.py``
PD007    fault-hook gating: every fault-injection draw (``*.fires(...)``
         or the burst draw ``*.quiet_run(...)``) sits behind an
         ``inj``/``injector`` test, so zero-fault runs stay
         branch-cheap and bit-identical
PD011    trace-hook gating: every span emission (``begin_span`` /
         ``end_span`` / ``instant_span`` / ``complete_span`` /
         ``add_flow``) sits behind a ``PLANES.trace`` test, so
         untraced runs stay branch-cheap and bit-identical
PD012    choice-point-hook gating: every controlled-scheduler hook
         (``choose_ready`` / ``on_step_begin`` / ``on_step_end`` /
         ``on_process_resumed``) sits behind a ``scheduler`` test, so
         unchecked runs keep the single cheap pop path and stay
         bit-identical
PD013    guard-hook gating: every guard-plane hook on the data path
         (``record_success`` / ``record_failure`` / ``admits`` /
         ``pick_healthy_engine`` / ``park_if_suspended`` /
         ``acquire_slots`` / ``release_slots``) and every pxd
         replica-recovery hook (``_maybe_probe`` / ``begin_probe``)
         sits behind a ``guard``/``gate`` test, so unguarded runs stay
         branch-cheap and bit-identical
PD016    machine-observer hook gating: every machine-observer hook
         (``on_machine_built``) sits behind a ``probe`` test, so
         unobserved runs stay branch-cheap and bit-identical
PD100    unused suppression: a ``# pd-ignore`` comment that suppresses
         no finding of any rule (rots silently and hides future real
         findings)
=======  ==============================================================

The five gating rules (PD007 ... PD016) are one table, ``_GATES``.
Each row names the handles its plane installs (see
:mod:`repro.config`); a test mentioning one of them, such as
``inj is not None``, gates the hook.  PicoVet's PD015.6 reads the
PD007 row through the same matcher, :func:`gates_mentioned`.
Fast-path purity (the former PD001/PD006) is PD015.1/PD015.3.

Per-line suppression: append ``# pd-ignore`` (all rules) or
``# pd-ignore[PD003, PD004]`` (specific rules) to the offending line.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

#: rule code -> (title, fix-it hint) of every rule: PD002-PD004, PD008,
#: PD009 and the PD015 family are the program-model rules of
#: repro.analysis.vet_checkers, the rest this module's scan and verdict
RULES: Dict[str, Tuple[str, str]] = {
    "PD000": ("parse failure",
              "fix the Python syntax; no protocol rule can run on an "
              "unparseable module"),
    "PD002": ("lock discipline",
              "wrap the critical section in try/finally and release the "
              "lock in the finally block"),
    "PD003": ("sim-process hygiene",
              "drive the generator with 'yield from', or hand it to "
              "sim.process(...)"),
    "PD004": ("layout-version guard",
              "call self.require_layout_version(layout, module_version) "
              "in attach() before building StructViews"),
    "PD005": ("raw heap access",
              "go through StructInstance/StructView (repro.core.structs) "
              "or CrossKernelSpinLock instead of raw heap words"),
    "PD007": ("fault-hook gating",
              "guard the injector draw with 'if inj is not None and "
              "inj.fires(...)' so runs without an installed injector "
              "never touch the fault RNG"),
    "PD011": ("trace-hook gating",
              "guard the span emission with 'if PLANES.trace is not "
              "None' (or the '... if PLANES.trace is not None else None' "
              "expression form) so untraced runs never touch the "
              "collector"),
    "PD012": ("choice-point-hook gating",
              "guard the scheduler hook with 'if self.scheduler is not "
              "None' so uncontrolled runs keep the single cheap pop "
              "path"),
    "PD013": ("guard-hook gating",
              "guard the hook with a 'guard'/'gate'-is-installed test "
              "(if guard is not None: ...) so unguarded runs never "
              "consult the health manager"),
    "PD008": ("lock-order hierarchy",
              "acquire lock classes in the rank-increasing order "
              "declared in repro.core.lockclasses (take the lower rank "
              "first), or fix the declaration if the order is right"),
    "PD009": ("no timed wait in critical section",
              "release the cross-kernel lock before yielding the timed "
              "wait; the peer kernel spins on the lock word until the "
              "wait elapses"),
    "PD015.1": ("fast path transitively offloads",
                "no callee reachable from a fast_* entry point may "
                "reach the IKC offload machinery; claim less or move "
                "the work to the slow path"),
    "PD015.2": ("fast path transitively sleeps",
                "no callee reachable from a fast_* entry point may "
                "reach a sleeping service (rcu_synchronize & co); "
                "defer the sleep to the Linux slow path"),
    "PD015.3": ("fast path transitively takes page references",
                "no callee reachable from a fast_* entry point may "
                "call get_user_pages; walk the LWK's pinned page "
                "tables instead"),
    "PD015.4": ("sleep or wait in atomic context",
                "an IRQ-context function must never reach a sleeping "
                "service, and a callee that may sleep or wait must "
                "not be invoked while a spinlock class is held"),
    "PD015.5": ("static race candidate",
                "cross-kernel accesses to one struct field need a "
                "common lock class or atomic accessors; if the race "
                "is benign by construction, say why in a comment and "
                "suppress with '# pd-ignore[PD015.5]'"),
    "PD015.6": ("typed error without handler",
                "every typed error a fault point can raise needs a "
                "handler somewhere on the path to the dispatcher "
                "boundary; catch it or stop raising it"),
    "PD016": ("machine-observer hook gating",
              "guard the observer hook with a 'probe'-is-installed test "
              "(if probe is not None: ...) so unobserved runs never "
              "call it"),
    "PD100": ("unused suppression",
              "delete the stale '# pd-ignore' comment (or narrow its "
              "rule list to the codes actually found on the line)"),
}

#: modules in repro/core allowed to touch raw heap words
_RAW_HEAP_ALLOWED = frozenset({"structs.py", "sync.py"})

_IGNORE_RE = re.compile(r"#\s*pd-ignore(?:\[([A-Za-z0-9_.,\s]*)\])?")

#: line -> (column, listed codes, or None for a blanket ignore) of each
#: suppression comment in one file
_Ignores = Dict[int, Tuple[int, Optional[Set[str]]]]


def code_matches(code: str, listed: str) -> bool:
    """True if finding ``code`` is covered by suppression entry
    ``listed`` — exact, or a family prefix (``PD015`` covers
    ``PD015.2``)."""
    return code == listed or code.startswith(listed + ".")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def hint(self) -> str:
        """The rule's fix-it hint."""
        return RULES[self.code][1]

    def render(self) -> str:
        """``path:line:col: CODE message (fix: hint)``, the path shown
        by :func:`display_path`."""
        return (f"{display_path(self.path)}:{self.line}:{self.col}: "
                f"{self.code} {self.message} (fix: {self.hint})")


def display_path(path: str) -> str:
    """``path`` relative to the directory that holds the ``repro``
    package when it lies under it (``repro/core/hfi_pico.py``), else as
    given, so two checkouts of one commit print the same text."""
    base = os.path.dirname(default_root())
    full = os.path.abspath(path)
    if full.startswith(base + os.sep):
        return os.path.relpath(full, base)
    return path


def rules_table() -> str:
    """The rule table shown by ``python -m repro vet --rules``."""
    lines = ["code     rule                                       fix",
             "-------  -----------------------------------------  "
             + "-" * 40]
    for code, (title, hint) in sorted(RULES.items()):
        lines.append(f"{code:7s}  {title:41s}  {hint}")
    return "\n".join(lines)


def _dotted(node: ast.AST) -> str:
    """Dotted path of a call target, e.g. ``self.lwk.ikc.call``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("<expr>")
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class _Gate:
    """One gating rule: a call ``*.<attr>(...)`` with ``attr`` in
    ``attrs`` must sit behind a test that mentions one of ``guards``,
    the names of the handle its plane installs."""

    code: str
    guards: Tuple[str, ...]
    attrs: FrozenSet[str]
    describe: str
    #: (path components, basename) -> the module is exempt from the rule
    exempt: Callable[[List[str], str], bool]


_GATES: Tuple[_Gate, ...] = (
    # every draw consumes the fault RNG, so no module is exempt
    _Gate("PD007", ("inj", "injector"), frozenset({"fires", "quiet_run"}),
          "fault-injection draw", lambda parts, base: False),
    # the collector and its exporters (repro/obs) emit by design
    _Gate("PD011", ("trace",),
          frozenset({"begin_span", "end_span", "instant_span",
                     "complete_span", "add_flow"}),
          "span emission", lambda parts, base: "obs" in parts),
    # the explorer and its fixtures (analysis/check*.py) drive the hooks
    _Gate("PD012", ("scheduler",),
          frozenset({"choose_ready", "on_step_begin", "on_step_end",
                     "on_process_resumed"}),
          "controlled-scheduler hook",
          lambda parts, base: "analysis" in parts
          and base.startswith("check")),
    # the manager, breakers and gates (repro/guard) call each other
    _Gate("PD013", ("guard", "gate"),
          frozenset({"record_success", "record_failure", "admits",
                     "pick_healthy_engine", "park_if_suspended",
                     "acquire_slots", "release_slots", "_maybe_probe",
                     "begin_probe"}),
          "guard-plane hook", lambda parts, base: "guard" in parts),
    # only the machine builder calls the hook, so no module is exempt
    _Gate("PD016", ("probe",), frozenset({"on_machine_built"}),
          "machine-observer hook", lambda parts, base: False),
)


def gates_mentioned(test: ast.AST,
                    gates: Iterable[_Gate] = _GATES) -> FrozenSet[str]:
    """Codes of the ``gates`` whose handle names ``test`` mentions (as a
    bare name or an attribute) anywhere."""
    names = {sub.id if isinstance(sub, ast.Name) else sub.attr
             for sub in ast.walk(test)
             if isinstance(sub, (ast.Name, ast.Attribute))}
    return frozenset(g.code for g in gates if not names.isdisjoint(g.guards))


# --- the one scan ------------------------------------------------------------

def lint_module(module) -> List[Finding]:
    """PD005 and the five gating rules (PD007 ... PD016) in one scan of
    one parsed :class:`~repro.analysis.astcache.ParsedModule`, before
    suppression.

    A hook call is guarded for a rule when it sits in the body of an
    ``if`` (or the then-branch of a conditional expression) whose test
    mentions one of the rule's guards, or — matching the hooks' actual
    idiom — when it appears in an ``and`` chain *after* such an operand,
    as in ``if inj is not None and inj.fires(...)``.  The scan
    carries the *set* of rules guarded at each node, so one plane's
    gate never excuses another plane's hook.
    """
    path = module.path
    parts = os.path.normpath(path).split(os.sep)
    base = os.path.basename(path)
    raw_heap = "core" in parts and base not in _RAW_HEAP_ALLOWED
    gates = [g for g in _GATES if not g.exempt(parts, base)]
    by_attr: Dict[str, List[_Gate]] = {}
    for gate in gates:
        for attr in gate.attrs:
            by_attr.setdefault(attr, []).append(gate)
    findings: List[Finding] = []

    def scan(node: ast.AST, guarded: FrozenSet[str]) -> None:
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            for gate in by_attr.get(attr, ()):
                if gate.code not in guarded:
                    findings.append(Finding(
                        path, node.lineno, node.col_offset, gate.code,
                        f"{gate.describe} '{_dotted(node.func)}' is not "
                        f"guarded by a test of {'/'.join(gate.guards)}"))
            if raw_heap and attr in ("read", "write", "read_u", "write_u"):
                receiver = _dotted(node.func.value)
                if "heap" in receiver.rsplit(".", 1)[-1].lower():
                    findings.append(Finding(
                        path, node.lineno, node.col_offset, "PD005",
                        f"raw shared-heap access '{receiver}.{attr}' "
                        f"outside structs.py/sync.py"))
        if isinstance(node, (ast.If, ast.IfExp)):
            scan(node.test, guarded)
            then = guarded | gates_mentioned(node.test, gates)
            # an ``if`` has statement lists, a conditional expression
            # single expressions
            for branch, under in ((node.body, then), (node.orelse, guarded)):
                for child in branch if isinstance(branch, list) else [branch]:
                    scan(child, under)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            for operand in node.values:
                scan(operand, guarded)
                guarded = guarded | gates_mentioned(operand, gates)
            return
        for child in ast.iter_child_nodes(node):
            scan(child, guarded)

    scan(module.tree, frozenset())
    return findings


def judge_suppressions(path: str, source: str,
                       findings: List[Finding]) -> List[Finding]:
    """One file's verdict: the ``findings`` (every rule's, on that
    file) its ``# pd-ignore`` comments leave standing, plus one PD100
    per comment that suppresses none of them."""
    ignores = _ignore_comments(source)
    kept = [f for f in findings if not _suppressed(ignores, f)]
    # PD100 is judged against the *pre*-suppression findings and added
    # after filtering, so an unused-suppression report cannot suppress
    # itself
    kept.extend(_unused_suppressions(path, ignores, findings))
    return kept


def parse_failure(module) -> Finding:
    """PD000 for a module that did not parse."""
    exc = module.error
    return Finding(module.path, exc.lineno or 1, (exc.offset or 1) - 1,
                   "PD000", f"syntax error: {exc.msg}")


def _suppressed(ignores: _Ignores, finding: Finding) -> bool:
    """True if the finding's line carries a matching ``# pd-ignore``."""
    if finding.line not in ignores:
        return False
    listed = ignores[finding.line][1]
    return listed is None or any(code_matches(finding.code, c)
                                 for c in listed)


def _unused_suppressions(path: str, ignores: _Ignores,
                         findings: List[Finding]) -> List[Finding]:
    """PD100: ``# pd-ignore`` comments that suppress nothing.

    A bare ignore on a line with no findings, or a targeted ignore
    listing codes none of which were found on that line, is dead weight:
    it documents a violation that no longer exists and will silently
    swallow the next real one.
    """
    by_line: Dict[int, Set[str]] = {}
    for finding in findings:
        by_line.setdefault(finding.line, set()).add(finding.code)
    out: List[Finding] = []
    for lineno, (col, listed) in sorted(ignores.items()):
        found = by_line.get(lineno, set())
        if listed is None:
            if not found:
                out.append(Finding(
                    path, lineno, col, "PD100",
                    "blanket '# pd-ignore' suppresses nothing on this "
                    "line"))
            continue
        stale = sorted(c for c in listed
                       if not any(code_matches(f, c) for f in found))
        if stale:
            out.append(Finding(
                path, lineno, col, "PD100",
                f"'# pd-ignore[{', '.join(stale)}]' suppresses nothing: "
                f"no such finding on this line"))
    return out


def _ignore_comments(source: str) -> _Ignores:
    """Every ``# pd-ignore`` comment in ``source``.  Only genuine
    COMMENT tokens count, for suppressing and for PD100 alike: a
    ``pd-ignore`` inside a string or docstring is prose, not a
    suppression."""
    out: _Ignores = {}
    if "pd-ignore" not in source:
        return out                      # nothing to judge: skip tokenize
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _IGNORE_RE.search(tok.string)
            if match is None:
                continue
            codes = match.group(1)
            listed = (None if codes is None else
                      {c.strip() for c in codes.split(",") if c.strip()})
            out[tok.start[0]] = (tok.start[1] + match.start(), listed)
    except (tokenize.TokenError, IndentationError):
        pass  # the parse failure is already a PD000 finding
    return out


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                out.extend(os.path.join(dirpath, f) for f in filenames
                           if f.endswith(".py"))
        else:
            out.append(path)
    return sorted(out)


def default_root() -> str:
    """The ``src/repro`` tree this installation runs from."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
