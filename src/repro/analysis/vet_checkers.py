"""The whole-program checkers over the PicoVet program model.

Each checker consumes the :class:`~repro.analysis.vet_effects.Program`
(call graph + contexts + effect fixpoint + lock sites + each function's
and class's digest) and emits :class:`~repro.analysis.lint.Finding`
objects, so they render, sort and suppress exactly like the syntactic
scan's findings.  Rule map:

========  ============================================================
PD002     lock discipline: every ``yield from X.acquire(...)`` has a
          matching ``X.release(...)`` inside a ``finally`` block
PD003     sim-process hygiene: ``fast_*`` methods are generators, and
          no method bare-calls a generator method of its class
PD004     layout-version guard: a PicoDriver class that builds a
          ``StructView`` calls ``require_layout_version``
PD008     lock-order hierarchy: an acquire, or a confident call whose
          callee may acquire, of a class ranked at or below one held
          (the declared order of :mod:`repro.core.lockclasses`)
PD009     timed wait (``yield *.timeout/wait(...)``) while a
          cross-kernel lock class is held
PD015.1   fast path transitively offloads
PD015.2   fast path transitively reaches a sleeping service
PD015.3   fast path transitively takes page references
PD015.4   sleep/wait in atomic context: a sleeping service reachable
          from an IRQ-context function, or a confident callee that may
          sleep or wait invoked while a spinlock class is held
PD015.5   static race candidate: cross-kernel write/write or
          write/read on one struct field with no common lock class
          (the static twin of a KSan report)
PD015.6   typed-error totality: a fault point raises an error no
          handler anywhere catches
========  ============================================================

PD002 anchors at the ``yield from``, PD003 at the ``def`` or the bare
call, PD004 at each ``StructView`` call, PD008 at the acquire or call
site, PD009 at the wait, PD015.1-3 at the fast entry's ``def`` line,
PD015.4 at the root/call site, PD015.5 at the first non-atomic write of
the racing pair, PD015.6 at the raise site — the anchor line is where a
justified ``# pd-ignore[...]`` belongs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .lint import Finding, parse_failure
from .vet_effects import HeapAccess, Program, Site, _error_covered

#: function names whose writes are initialization, exempt from race
#: candidacy (the paper's exclusive-phase argument: probe/open/attach
#: run before any cross-kernel sharing starts)
_INIT_EXEMPT_NAMES = frozenset({"probe", "open", "attach", "__init__",
                                "load", "setup", "install", "mount"})
_INIT_EXEMPT_PREFIXES = ("boot", "register")


def _short(qualname: str) -> str:
    return qualname.split("::", 1)[-1]


def _bare(qualname: str) -> str:
    return _short(qualname).rsplit(".", 1)[-1]


def _site_key(site: Site) -> Tuple[str, int, str]:
    return (site.path, site.line, site.what)


def _chain(program: Program, entry: str, offender) -> str:
    return " -> ".join(_short(q)
                       for q in program.witness_chain(entry, offender))


def _init_exempt(func_qualname: str) -> bool:
    name = _bare(func_qualname)
    return (name in _INIT_EXEMPT_NAMES
            or name.startswith(_INIT_EXEMPT_PREFIXES))


# --- PD002-PD004: the porting obligations of one function or class ----------

def check_lock_discipline(program: Program) -> List[Finding]:
    """PD002: every ``yield from X.acquire(...)`` pairs with an
    ``X.release(...)`` in a ``finally``."""
    out: List[Finding] = []
    for fn in program.functions.values():
        for site in fn.acquire_sites:
            receiver = site.receiver
            in_finally = fn.releases.get(receiver)
            if in_finally is None:
                message = (f"'{receiver}.acquire' in {fn.name} has no "
                           f"matching '{receiver}.release'")
            elif not in_finally:
                message = (f"'{receiver}.release' in {fn.name} is not in "
                           f"a finally block; an exception leaks the lock")
            else:
                continue
            out.append(Finding(fn.path, *site.yield_at, "PD002", message))
    return out


def check_process_hygiene(program: Program) -> List[Finding]:
    """PD003: ``fast_*`` methods are generators, and no method
    bare-calls a generator method of its class."""
    out: List[Finding] = []
    for model in program.classes:
        generators = {n for n, fn in model.methods.items() if fn.yields}
        for name, fn in model.methods.items():
            if name.startswith("fast_") and name not in generators:
                out.append(Finding(
                    fn.path, fn.line, fn.node.col_offset, "PD003",
                    f"fast-path method {model.name}.{name} is not a "
                    f"generator; it cannot run as a simulation process"))
            out.extend(Finding(
                fn.path, line, col, "PD003",
                f"bare call to generator method 'self.{callee}' in "
                f"{model.name}.{name}; the process is created and "
                f"silently discarded")
                for callee, line, col in fn.self_calls
                if callee in generators)
    return out


def check_layout_guard(program: Program) -> List[Finding]:
    """PD004: a PicoDriver class that builds a ``StructView`` calls
    ``require_layout_version``."""
    out: List[Finding] = []
    for model in program.classes:
        if not model.pico_like:
            continue
        calls = [site for fn in model.methods.values() for site in fn.calls]
        if any(site.name == "require_layout_version" for site in calls):
            continue
        out.extend(Finding(model.path, site.line, site.col, "PD004",
                           f"{model.name} builds a StructView but never "
                           f"calls require_layout_version; a stale DWARF "
                           f"layout would silently read wrong bytes")
                   for site in calls if site.name == "StructView")
    return out


# --- PD008/PD009: lock order and timed waits under a lock -------------------

def check_lock_hierarchy(program: Program) -> List[Finding]:
    """PD008: every acquire site, and every confident call whose callee
    may acquire, must take classes ranked above every class held (the
    registry's one order rule)."""
    from ..core.lockclasses import REGISTRY
    out: List[Finding] = []
    for fn, held, cls, site, callee in program.lock_nestings():
        problem = REGISTRY.order_problem(held, cls)
        if problem is None:
            continue
        func = _short(fn.qualname)
        where = (f"'{site.receiver}.acquire' in {func}" if callee is None
                 else f"'{_short(callee)}' called from {func}")
        out.append(Finding(fn.path, site.line, site.col, "PD008",
                           f"{where} {problem}"))
    return out


def check_wait_under_lock(program: Program) -> List[Finding]:
    """PD009: no timed wait while a cross-kernel lock class is held —
    the peer kernel spins on the lock word for the whole wait."""
    out: List[Finding] = []
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        for site in fn.wait_sites:
            if site.held:
                out.append(Finding(
                    fn.path, site.line, site.col, "PD009",
                    f"timed yield '{site.what}' in {_short(qualname)} "
                    f"while holding cross-kernel lock(s) "
                    f"{', '.join(dict.fromkeys(site.held))}; the peer "
                    f"kernel spins for the whole wait"))
    return out


# --- PD015.1/.2/.3: interprocedural fast-path purity -------------------------

def check_fast_path_purity(program: Program) -> List[Finding]:
    """PD015.1/.2/.3: no fast entry may transitively offload, sleep
    unbounded, or take page references."""
    out: List[Finding] = []
    probes = (
        ("PD015.1", "offloads", "may offload to Linux"),
        ("PD015.2", "sleeps", "may sleep unbounded"),
        ("PD015.3", "unpinned", "may take page references"),
    )
    for fn in program.entry_points():
        eff = program.effects[fn.qualname]
        for code, slot, verb in probes:
            sites = getattr(eff, slot)
            if not sites:
                continue
            site = min(sites, key=_site_key)
            chain = _chain(program, fn.qualname,
                           lambda e, s=slot: bool(getattr(e, s)))
            out.append(Finding(
                fn.path, fn.line, fn.node.col_offset, code,
                f"fast path '{_short(fn.qualname)}' {verb}: "
                f"{site.render()} (via {chain})"))
    return out


# --- PD015.4: sleep/wait in atomic context -----------------------------------

def check_sleep_in_atomic(program: Program) -> List[Finding]:
    """PD015.4: sleeping service reachable from IRQ context, or a
    may-wait callee invoked while a spinlock class is held."""
    out: List[Finding] = []
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        if "irq" in program.contexts.get(qualname, ()):
            eff = program.effects[qualname]
            if eff.sleeps:
                site = min(eff.sleeps, key=_site_key)
                chain = _chain(program, qualname,
                               lambda e: bool(e.sleeps))
                out.append(Finding(
                    fn.path, fn.line, fn.node.col_offset, "PD015.4",
                    f"IRQ-context '{_short(qualname)}' may sleep: "
                    f"{site.render()} (via {chain})"))
        # a callee that may sleep or take a timed wait, invoked while a
        # spinlock class is held (a wait in the function itself is
        # PD009; only confident edges — guessing here would drown real
        # hazards in noise)
        for rc in program.edges.get(qualname, ()):
            if not rc.confident or not rc.site.held:
                continue
            for target in rc.targets:
                teff = program.effects[target]
                waits = teff.sleeps | teff.timed_waits
                if not waits:
                    continue
                site = min(waits, key=_site_key)
                held = ", ".join(rc.site.held)
                out.append(Finding(
                    fn.path, rc.site.line, 0, "PD015.4",
                    f"'{_short(qualname)}' calls '{_short(target)}' "
                    f"while holding [{held}]; the callee may wait: "
                    f"{site.render()}"))
    return out


# --- PD015.5: static race candidates -----------------------------------------

def _conflicts(a: HeapAccess, b: HeapAccess) -> bool:
    """KSan-style pair test: distinct known kernels, at least one side
    a write, no common lock class (both already non-atomic)."""
    if a.kernel == b.kernel or "?" in (a.kernel, b.kernel):
        return False
    if a.kind != "write" and b.kind != "write":
        return False
    return not set(a.locks) & set(b.locks)


def check_race_candidates(program: Program) -> List[Finding]:
    """PD015.5: cross-kernel access pairs on one struct field with at
    least one write and no common lock class (static KSan twin)."""
    groups: Dict[Tuple[str, str], List[HeapAccess]] = {}
    for access in program.all_accesses():
        if access.struct == "?" or access.atomic:
            continue
        if _init_exempt(access.func):
            continue
        groups.setdefault((access.struct, access.field), []) \
            .append(access)
    out: List[Finding] = []
    for (struct, fieldname), accesses in sorted(groups.items()):
        racing: List[HeapAccess] = []
        for a in accesses:
            if any(b is not a and _conflicts(a, b) for b in accesses):
                racing.append(a)
        if not racing:
            continue
        writes = sorted((a for a in racing if a.kind == "write"),
                        key=lambda a: (a.path, a.line))
        anchor = writes[0]
        sites = "; ".join(a.render()
                          for a in sorted(racing,
                                          key=lambda a: (a.path, a.line,
                                                         a.kind)))
        out.append(Finding(
            anchor.path, anchor.line, 0, "PD015.5",
            f"cross-kernel race candidate on {struct}.{fieldname} "
            f"with no common lock class: {sites}"))
    return out


# --- PD015.6: typed-error totality -------------------------------------------

def check_error_totality(program: Program) -> List[Finding]:
    """PD015.6: every fault-gated raise must have a typed handler for
    the error (or an ancestor) somewhere in the tree."""
    out: List[Finding] = []
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        # only typed handlers count: a blanket ``except Exception``
        # somewhere must not vacuously discharge every fault point
        typed = program.handled_anywhere & program.error_classes
        for errname, site in fn.fault_raises:
            if _error_covered(errname, typed, program.error_hierarchy):
                continue
            out.append(Finding(
                fn.path, site.line, 0, "PD015.6",
                f"fault point in '{_short(qualname)}' raises {errname} "
                f"but no handler for it (or an ancestor) exists on any "
                f"path to the dispatcher boundary"))
    return out


def run_checkers(program: Program) -> List[Finding]:
    """Every program-model checker's findings, sorted by location."""
    out = [parse_failure(module) for module in program.modules
           if not module.ok]
    out.extend(check_lock_discipline(program))
    out.extend(check_process_hygiene(program))
    out.extend(check_layout_guard(program))
    out.extend(check_lock_hierarchy(program))
    out.extend(check_wait_under_lock(program))
    out.extend(check_fast_path_purity(program))
    out.extend(check_sleep_in_atomic(program))
    out.extend(check_race_candidates(program))
    out.extend(check_error_totality(program))
    return sorted(out, key=lambda f: (f.path, f.line, f.col, f.code))
