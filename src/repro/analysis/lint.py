"""PicoDriver protocol lint: one syntactic pass per module.

The paper's porting methodology (sections 3.1-3.4) is a *protocol*:
shared locks must be released on every path, simulation processes must
actually be generators, DWARF layouts must be version-checked before
use, raw shared-heap word access is confined to the blessed accessor
modules, and every opt-in plane's hooks sit behind a test of the
handle that plane installed.
Amani et al. ("Automatic Verification of Message-Based Device Drivers")
show this class of driver-protocol property is statically checkable;
this module checks the per-module half with nothing but the stdlib
``ast``.  Everything interprocedural — fast-path purity, lock order,
waits under a lock — is a query over PicoVet's one program model
(``python -m repro vet``, rules PD008, PD009 and PD015.x).

Rules (each finding carries a fix-it hint):

=======  ==============================================================
PD002    lock discipline: every ``yield from X.acquire(...)`` has a
         matching ``X.release(...)`` inside a ``finally`` block
PD003    sim-process hygiene: ``fast_*`` methods must be generators,
         and generator methods must not be bare-called (their process
         would be silently discarded)
PD004    layout-version guard: a PicoDriver class constructing a
         ``StructView`` must call ``require_layout_version``
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
         ``acquire_slots`` / ``release_slots``) sits behind a
         ``guard``/``gate`` test, so unguarded runs stay branch-cheap
         and bit-identical
PD014    storage recovery-hook gating: in the replicated-storage stack
         (``repro/linux/pxd``, the ``pxd_pico`` chassis) every
         replica-recovery hook (``_maybe_probe`` / ``begin_probe`` /
         ``suspend`` / ``resume``) sits behind a ``guard``/``gate``
         test; the fault-draw half of the storage contract is PD007
         tree-wide, and the blockdev device model is exempt (it moves
         bytes unconditionally)
PD016    tune-hook gating: every PicoTune probe hook
         (``on_machine_built``) sits behind a ``probe`` test, so
         untuned runs stay branch-cheap and bit-identical
         (``repro/tune`` exempt)
PD100    unused suppression: a ``# pd-ignore`` comment that suppresses
         nothing (rots silently and hides future real findings)
=======  ==============================================================

The six gating rules (PD007 ... PD016) are one table, ``_GATES``,
checked in one scan.  Each row names the handles its plane installs
(see :mod:`repro.config`); a test mentioning one of them, such as
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
from typing import (Callable, Dict, FrozenSet, Iterable, List, Sequence, Set,
                    Tuple)

#: rule code -> (title, fix-it hint)
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
    "PD014": ("storage recovery-hook gating",
              "guard the probe/suspend recovery hook with a "
              "'guard'-is-installed test (if self.guard is not None: "
              "...) so unguarded storage runs never touch the health "
              "plane"),
    # PD008, PD009 and the PD015 family are produced by ``python -m
    # repro vet`` (VET_CODES), not by lint; the entries live here so vet
    # findings share lint's Finding/hint/suppression machinery and show
    # up in the one rule table.
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
    "PD016": ("tune-hook gating",
              "guard the probe hook with a 'probe'-is-installed test "
              "(if probe is not None: ...) so untuned runs never touch "
              "the exploration service"),
    "PD100": ("unused suppression",
              "delete the stale '# pd-ignore' comment (or narrow its "
              "rule list to the codes actually found on the line)"),
}

#: modules in repro/core allowed to touch raw heap words
_RAW_HEAP_ALLOWED = frozenset({"structs.py", "sync.py"})

_IGNORE_RE = re.compile(r"#\s*pd-ignore(?:\[([A-Za-z0-9_.,\s]*)\])?")


def code_matches(code: str, listed: str) -> bool:
    """True if finding ``code`` is covered by suppression entry
    ``listed`` — exact, or a family prefix (``PD015`` covers
    ``PD015.2``)."""
    return code == listed or code.startswith(listed + ".")


#: rule ids ``python -m repro vet`` owns: lint never emits them, so only
#: vet may judge a suppression listing them stale
VET_CODES = ("PD008", "PD009", "PD015")


def vet_owned(code: str) -> bool:
    """True if suppression entry ``code`` names a vet rule."""
    return any(code_matches(code, owned) for owned in VET_CODES)


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

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
        """``path:line:col: CODE message (fix: hint)``."""
        return (f"{self.path}:{self.line}:{self.col}: {self.code} "
                f"{self.message} (fix: {self.hint})")


def rules_table() -> str:
    """The rule table shown by ``python -m repro lint --rules``."""
    lines = ["code     rule                                       fix",
             "-------  -----------------------------------------  "
             + "-" * 40]
    for code, (title, hint) in sorted(RULES.items()):
        lines.append(f"{code:7s}  {title:41s}  {hint}")
    return "\n".join(lines)


# --- AST helpers -------------------------------------------------------------

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


def _walk_shallow(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root`` without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(fn: ast.FunctionDef) -> bool:
    """True if the function body itself contains ``yield``/``yield from``."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _walk_shallow(fn))


class _ClassInfo:
    """A class definition digested for the PicoDriver rules."""

    def __init__(self, node: ast.ClassDef):
        self.node = node
        self.methods: Dict[str, ast.FunctionDef] = {
            item.name: item for item in node.body
            if isinstance(item, ast.FunctionDef)}
        self.fast_methods = [m for m in self.methods if m.startswith("fast_")]
        base_names = [_dotted(b).rsplit(".", 1)[-1] for b in node.bases]
        self.pico_like = (any("PicoDriver" in b for b in base_names)
                          or bool(self.fast_methods))


# --- rule passes -------------------------------------------------------------

def _release_sites(fn: ast.FunctionDef,
                   receiver: str) -> Tuple[bool, bool]:
    """(any release of receiver, any release inside a finally block)."""
    any_release = in_finally = False

    def matches(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
                and _dotted(node.func.value) == receiver)

    for node in _walk_shallow(fn):
        if matches(node):
            any_release = True
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if matches(sub):
                        in_finally = True
    return any_release, in_finally


def _check_lock_discipline(path: str, tree: ast.AST,
                           findings: List[Finding]) -> None:
    """PD002: every ``yield from X.acquire(...)`` pairs with a
    ``X.release(...)`` in a ``finally``."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in _walk_shallow(fn):
            if not (isinstance(node, ast.YieldFrom)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "acquire"):
                continue
            receiver = _dotted(node.value.func.value)
            any_release, in_finally = _release_sites(fn, receiver)
            if not any_release:
                findings.append(Finding(
                    path, node.lineno, node.col_offset, "PD002",
                    f"'{receiver}.acquire' in {fn.name} has no matching "
                    f"'{receiver}.release'"))
            elif not in_finally:
                findings.append(Finding(
                    path, node.lineno, node.col_offset, "PD002",
                    f"'{receiver}.release' in {fn.name} is not in a "
                    f"finally block; an exception leaks the lock"))


def _check_process_hygiene(path: str, cls: _ClassInfo,
                           findings: List[Finding]) -> None:
    """PD003: fast_* methods are generators; no bare generator calls."""
    generators = {name for name, fn in cls.methods.items()
                  if _is_generator(fn)}
    for name in sorted(cls.fast_methods):
        fn = cls.methods[name]
        if name not in generators:
            findings.append(Finding(
                path, fn.lineno, fn.col_offset, "PD003",
                f"fast-path method {cls.node.name}.{name} is not a "
                f"generator; it cannot run as a simulation process"))
    for mname, fn in sorted(cls.methods.items()):
        for node in _walk_shallow(fn):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and isinstance(node.value.func.value, ast.Name)
                    and node.value.func.value.id == "self"):
                continue
            callee = node.value.func.attr
            if callee in generators:
                findings.append(Finding(
                    path, node.lineno, node.col_offset, "PD003",
                    f"bare call to generator method 'self.{callee}' in "
                    f"{cls.node.name}.{mname}; the process is created "
                    f"and silently discarded"))


def _check_layout_guard(path: str, cls: _ClassInfo,
                        findings: List[Finding]) -> None:
    """PD004: StructView construction requires require_layout_version."""
    if not cls.pico_like:
        return
    builds: List[ast.Call] = []
    guarded = False
    for fn in cls.methods.values():
        for node in _walk_shallow(fn):
            if not isinstance(node, ast.Call):
                continue
            last = _dotted(node.func).rsplit(".", 1)[-1]
            if last == "StructView":
                builds.append(node)
            if last == "require_layout_version":
                guarded = True
    if guarded:
        return
    for node in builds:
        findings.append(Finding(
            path, node.lineno, node.col_offset, "PD004",
            f"{cls.node.name} builds a StructView but never calls "
            f"require_layout_version; a stale DWARF layout would "
            f"silently read wrong bytes"))


def _check_raw_heap(path: str, tree: ast.AST,
                    findings: List[Finding]) -> None:
    """PD005: raw heap word access confined to structs.py/sync.py."""
    parts = os.path.normpath(path).split(os.sep)
    if "core" not in parts or os.path.basename(path) in _RAW_HEAP_ALLOWED:
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("read", "write", "read_u", "write_u")):
            continue
        receiver = _dotted(node.func.value)
        if "heap" in receiver.rsplit(".", 1)[-1].lower():
            findings.append(Finding(
                path, node.lineno, node.col_offset, "PD005",
                f"raw shared-heap access '{receiver}.{node.func.attr}' "
                f"outside structs.py/sync.py"))


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
                     "acquire_slots", "release_slots"}),
          "guard-plane hook", lambda parts, base: "guard" in parts),
    # pxd stack only; blockdev.py moves bytes and must redeliver IRQs
    # with or without the guard plane
    _Gate("PD014", ("guard", "gate"),
          frozenset({"_maybe_probe", "begin_probe", "suspend", "resume"}),
          "storage recovery hook",
          lambda parts, base: "guard" in parts or base == "blockdev.py"
          or ("pxd" not in parts and base != "pxd_pico.py")),
    # the environment and its probes (repro/tune) drive the hook
    _Gate("PD016", ("probe",), frozenset({"on_machine_built"}),
          "PicoTune probe hook", lambda parts, base: "tune" in parts),
)


def gates_mentioned(test: ast.AST,
                    gates: Iterable[_Gate] = _GATES) -> FrozenSet[str]:
    """Codes of the ``gates`` whose handle names ``test`` mentions (as a
    bare name or an attribute) anywhere."""
    names = {sub.id if isinstance(sub, ast.Name) else sub.attr
             for sub in ast.walk(test)
             if isinstance(sub, (ast.Name, ast.Attribute))}
    return frozenset(g.code for g in gates if not names.isdisjoint(g.guards))


def _check_gating(path: str, tree: ast.AST,
                  findings: List[Finding]) -> None:
    """PD007/PD011/PD012/PD013/PD014/PD016 in one scan.

    A hook call is guarded for a rule when it sits in the body of an
    ``if`` (or the then-branch of a conditional expression) whose test
    mentions one of the rule's guards, or — matching the hooks' actual
    idiom — when it appears in an ``and`` chain *after* such an operand,
    as in ``if inj is not None and inj.fires(...)``.  The scan
    carries the *set* of rules guarded at each node, so one plane's
    gate never excuses another plane's hook.
    """
    parts = os.path.normpath(path).split(os.sep)
    base = os.path.basename(path)
    gates = [g for g in _GATES if not g.exempt(parts, base)]
    by_attr: Dict[str, List[_Gate]] = {}
    for gate in gates:
        for attr in gate.attrs:
            by_attr.setdefault(attr, []).append(gate)

    def scan(node: ast.AST, guarded: FrozenSet[str]) -> None:
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            for gate in by_attr.get(node.func.attr, ()):
                if gate.code not in guarded:
                    findings.append(Finding(
                        path, node.lineno, node.col_offset, gate.code,
                        f"{gate.describe} '{_dotted(node.func)}' is not "
                        f"guarded by a test of {'/'.join(gate.guards)}"))
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

    if gates:
        scan(tree, frozenset())


# --- driver ------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    from . import astcache
    return lint_parsed(astcache.parse_source(source, path))


def lint_parsed(module) -> List[Finding]:
    """Lint one already-parsed :class:`~repro.analysis.astcache.ParsedModule`
    (the shared-cache entry point: lint and the PicoVet model reuse the
    same parse)."""
    path, source = module.path, module.source
    if not module.ok:
        return [parse_failure(module)]
    tree = module.tree
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            cls = _ClassInfo(node)
            _check_process_hygiene(path, cls, findings)
            _check_layout_guard(path, cls, findings)
    _check_lock_discipline(path, tree, findings)
    _check_raw_heap(path, tree, findings)
    _check_gating(path, tree, findings)
    lines = source.splitlines()
    kept = [f for f in findings if not _suppressed(lines, f)]
    # PD100 is judged against the *pre*-suppression findings and added
    # after filtering, so an unused-suppression report cannot suppress
    # itself
    kept.extend(_unused_suppressions(path, source, findings))
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.code))


def parse_failure(module) -> Finding:
    """PD000 for a module that did not parse."""
    exc = module.error
    return Finding(module.path, exc.lineno or 1, (exc.offset or 1) - 1,
                   "PD000", f"syntax error: {exc.msg}")


def _suppressed(lines: Sequence[str], finding: Finding) -> bool:
    """True if the finding's line carries a matching ``# pd-ignore``."""
    if not (1 <= finding.line <= len(lines)):
        return False
    match = _IGNORE_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    codes = match.group(1)
    if codes is None:
        return True
    listed = {c.strip() for c in codes.split(",") if c.strip()}
    return any(code_matches(finding.code, c) for c in listed)


def _unused_suppressions(path: str, source: str,
                         findings: List[Finding]) -> List[Finding]:
    """PD100: ``# pd-ignore`` comments that suppress nothing.

    A bare ignore on a line with no findings, or a targeted ignore
    listing codes none of which were found on that line, is dead weight:
    it documents a violation that no longer exists and will silently
    swallow the next real one.  Only genuine COMMENT tokens count — a
    ``pd-ignore`` mentioned inside a docstring is prose, not a
    suppression.
    """
    by_line: Dict[int, Set[str]] = {}
    for finding in findings:
        by_line.setdefault(finding.line, set()).add(finding.code)
    out: List[Finding] = []
    for lineno, col, comment in _comment_tokens(source):
        match = _IGNORE_RE.search(comment)
        if match is None:
            continue
        found = by_line.get(lineno, set())
        codes = match.group(1)
        if codes is None:
            if not found:
                out.append(Finding(
                    path, lineno, col + match.start(), "PD100",
                    "blanket '# pd-ignore' suppresses nothing on this "
                    "line"))
            continue
        listed = {c.strip() for c in codes.split(",") if c.strip()}
        stale = sorted(c for c in listed
                       if not vet_owned(c)
                       and not any(code_matches(f, c) for f in found))
        if stale:
            out.append(Finding(
                path, lineno, col + match.start(), "PD100",
                f"'# pd-ignore[{', '.join(stale)}]' suppresses nothing: "
                f"no such finding on this line"))
    return out


def _comment_tokens(source: str) -> List[Tuple[int, int, str]]:
    """(line, col, text) for every comment token in ``source``."""
    out: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError):
        pass  # lint_source already reported the parse problem
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


def _lint_file(filename: str) -> List[Finding]:
    """Worker for ``lint_paths``; module-level so it pickles."""
    from . import astcache
    return lint_parsed(astcache.parse_module(filename))


def lint_paths(paths: Iterable[str], jobs: int = 1) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; with ``jobs > 1`` the
    files are fanned out over a process pool (each worker keeps its own
    AST cache — the parallelism trades one parse per worker-file for
    wall-clock)."""
    files = iter_python_files(paths)
    if jobs > 1 and len(files) > 1:
        import multiprocessing
        with multiprocessing.Pool(min(jobs, len(files))) as pool:
            per_file = pool.map(_lint_file, files)
        return [f for file_findings in per_file for f in file_findings]
    findings: List[Finding] = []
    for filename in files:
        findings.extend(_lint_file(filename))
    return findings


def default_lint_root() -> str:
    """The ``src/repro`` tree this installation runs from."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
