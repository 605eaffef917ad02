"""PicoVet's whole-program model: call graph, contexts, effect lattice.

A syntactic rule judges one module at a time, so a helper that
transitively offloads, sleeps or touches unpinned memory two calls away
from a ``fast_*`` entry point is invisible to it.  This module builds
the one model of the tree, one digest per ``def`` and class wherever it
sits, with nothing but the stdlib ``ast``; the checkers of
:mod:`repro.analysis.vet_checkers` and the lock graph of
:func:`repro.analysis.lockdep.lock_graph` are queries over it:

* a **call graph** with class-aware method resolution: ``self.m()``
  resolves through the enclosing class and its base chain,
  ``self.attr.m()`` through constructor-typed attributes
  (``self.ring = DrainRing(...)``), bare names through module-level
  functions (unless the caller's module imports the name from outside
  ``repro``: ``reduce`` from ``functools`` is no edge to a tree
  function named ``reduce``), and — as a last resort — a globally
  unique method name resolves to its single definer.  Ambiguous names
  (2-4 definers) link to *all* candidates but are marked
  non-confident; effects still flow through them (over-approximation),
  while the checkers that must not guess (held-lock x wait) only trust
  confident edges.
  ``sim.process(...)`` and ``sim.spawn(...)`` create *spawn* edges,
  which carry execution context but never synchronous effects, while
  ``sim.call(f(...))`` is a synchronous call of ``f`` (the child runs
  in the caller's frame);

* per-function **execution contexts** (``linux``, ``lwk``, ``irq``,
  ``sdma-engine``, ``fabric``, ``device``) inferred from registration
  sites: ``fast_*`` methods of PicoDriver chassis run on the LWK, IRQ
  dispatcher wiring (``x.irq_dispatcher = self._m``,
  ``interrupts.deliver(self._m, ...)``, cross-kernel
  ``callbacks.register(..., self._m)``, where ``_m`` is also every
  subclass override) marks top halves, and device drain processes
  spawned inside ``repro/hw`` run in engine context;

* a fixpoint over an **effect lattice** per function: may-sleep
  (curated sleeping services), timed waits (``yield *.timeout/wait``,
  ``yield from *.delay``),
  may-offload (IKC / syscall dispatch), unpinned allocation
  (``get_user_pages``), acquired lock classes, shared-heap struct-field
  reads/writes with kernel attribution, raised typed errors (filtered
  through enclosing ``except`` clauses during propagation), and RNG
  draws;

* per-function **lock sites**: every ``yield from X.acquire(kernel,
  ...)`` with its lock class and kernel, and every timed wait, each
  with the lock classes held there, and the facts PD002-PD004 read:
  releases in a ``finally``, yields and bare ``self.m(...)`` calls.

The model is deliberately an over-approximation: every dynamic fact a
KSan/lockdep run observes must be contained in it (``python -m repro
sanitize``), which is what keeps the static half honest.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from . import astcache
from .lint import (_dotted, default_root, display_path, gates_mentioned,
                   iter_python_files)

#: call names that mark the offloading / syscall-dispatch machinery
_OFFLOAD_NAMES = frozenset({"_offload", "offload", "offload_syscall",
                            "dispatch_syscall", "syscall"})

#: ``yield *.<name>(...)`` calls that are a timed wait
_WAIT_CALLS = frozenset({"timeout", "wait"})

#: ``yield from *.<name>(...)`` calls that are a timed wait: the
#: engine's delay (not ``wait``: ``mpi`` requests' ``wait`` is a
#: generator the apps join with ``yield from``)
_DELAY_CALLS = frozenset({"delay"})

#: services a fast path / IRQ top half must never reach: they block the
#: caller for an unbounded time (the in-tree members are
#: ``rcu_synchronize`` and the classic Linux sleeping-API names; bounded
#: waits like ``_await_engine_running`` are *timed* waits, not sleeps)
SLEEP_SERVICES = frozenset({
    "rcu_synchronize", "msleep", "usleep_range", "schedule",
    "schedule_timeout", "wait_event", "wait_event_interruptible",
    "mutex_lock", "kthread_stop", "nanosleep",
})

#: attribute calls that are struct/dict accessors or lock primitives —
#: never call-graph edges (locks become lock sites, accessors the
#: heap-access surface, both digested separately)
_NEVER_EDGE = frozenset({"get", "set", "add", "acquire", "release"})

#: method names too generic for the unique-definer fallback: resolving
#: them globally would wire unrelated classes together
_GENERIC_NAMES = frozenset({
    "render", "describe", "summary", "main", "run", "close", "reset",
    "free", "register", "unregister", "append", "pop", "remove", "clear",
    "items", "keys", "values", "update", "copy", "sort", "join", "split",
    "count", "record", "start", "stop", "push", "send", "recv", "read",
    "write", "read_u", "write_u", "invoke", "succeed", "call", "wait",
    "timeout", "process", "deliver", "setdefault", "extend", "format",
    "startswith", "endswith", "strip", "lower", "upper", "sample",
})

#: file-op method names that root the ``linux`` context on FileOps
#: subclasses under ``repro/linux``
_FILE_OPS = frozenset({"open", "release", "read", "write", "writev",
                       "ioctl", "mmap", "poll"})


@dataclass(frozen=True)
class Site:
    """A source location witnessing one effect."""

    what: str
    path: str
    line: int

    def render(self) -> str:
        """``what at file:line`` for findings and summaries."""
        return f"{self.what} at {os.path.basename(self.path)}:{self.line}"


@dataclass(frozen=True)
class HeapAccess:
    """One statically inferred shared-heap struct-field access."""

    struct: str                    #: struct type name, or "?" (unresolved)
    field: str
    kernel: str                    #: "linux" / "mckernel" / "?" (unresolved)
    kind: str                      #: "read" or "write"
    atomic: bool
    path: str
    line: int
    func: str                      #: qualname of the accessing function
    locks: Tuple[str, ...]         #: lock classes statically held here
    #: struct/kernel filled in by the refinement pass (unique-field map,
    #: context-derived kernel) rather than read off the receiver —
    #: sanitize's containment check treats inferred attribution as a
    #: wildcard
    inferred: bool = False

    def render(self) -> str:
        """One-line KSan-style description of the access."""
        held = "{" + ", ".join(self.locks) + "}"
        return (f"{self.kind:5s} {self.struct}.{self.field} by "
                f"{self.kernel} locks={held}"
                f"{' [atomic]' if self.atomic else ''} — "
                f"{os.path.basename(self.path)}:{self.line} in {self.func}")


@dataclass(frozen=True)
class LockSite:
    """An acquire or a timed wait, with the lock classes held there."""

    what: str                      #: lock class acquired, or the wait call
    line: int
    col: int
    held: Tuple[str, ...]          #: lock classes held before the site
    receiver: str = ""             #: dotted lock receiver (acquires)
    kernel: str = "?"              #: acquiring kernel (acquires)
    #: (line, col) of the ``yield from`` (acquires), PD002's anchor
    yield_at: Tuple[int, int] = (0, 0)


class Effect:
    """Per-function effect lattice element (sets grow monotonically)."""

    __slots__ = ("sleeps", "timed_waits", "offloads", "unpinned",
                 "acquires", "raises_", "rng")

    def __init__(self) -> None:
        self.sleeps: Set[Site] = set()
        self.timed_waits: Set[Site] = set()
        self.offloads: Set[Site] = set()
        self.unpinned: Set[Site] = set()
        self.acquires: Set[str] = set()
        self.raises_: Set[Tuple[str, Site]] = set()
        self.rng: Set[Site] = set()

    def copy(self) -> "Effect":
        """A deep-enough copy (fresh sets, shared frozen sites)."""
        out = Effect()
        for slot in self.__slots__:
            getattr(out, slot).update(getattr(self, slot))
        return out

    def absorb(self, other: "Effect", handled: Iterable[str],
               hierarchy: Dict[str, List[str]]) -> bool:
        """Fold ``other`` (a callee) into this effect; callee raises
        covered by the call site's ``except`` clauses do not propagate.
        Returns True when anything changed."""
        changed = False
        for slot in ("sleeps", "timed_waits", "offloads", "unpinned",
                     "acquires", "rng"):
            mine, theirs = getattr(self, slot), getattr(other, slot)
            if not theirs <= mine:
                mine.update(theirs)
                changed = True
        handled_set = set(handled)
        for errname, site in other.raises_:
            if (errname, site) in self.raises_:
                continue
            if handled_set and _error_covered(errname, handled_set,
                                              hierarchy):
                continue
            self.raises_.add((errname, site))
            changed = True
        return changed

    def summary(self) -> Dict[str, List[str]]:
        """JSON-friendly rendering for ``vet --json``."""
        return {
            "sleeps": sorted(s.render() for s in self.sleeps),
            "timed_waits": sorted(s.render() for s in self.timed_waits),
            "offloads": sorted(s.render() for s in self.offloads),
            "unpinned": sorted(s.render() for s in self.unpinned),
            "acquires": sorted(self.acquires),
            "raises": sorted(f"{e} ({s.render()})"
                             for e, s in self.raises_),
            "rng": sorted(s.render() for s in self.rng),
        }


def _error_covered(errname: str, handled: Set[str],
                   hierarchy: Dict[str, List[str]]) -> bool:
    """True if ``errname`` or any ancestor is in ``handled``."""
    seen: Set[str] = set()
    frontier = [errname]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in handled:
            return True
        frontier.extend(hierarchy.get(name, ()))
    return False


@dataclass(frozen=True)
class CallSite:
    """One syntactic call, pre-resolution."""

    name: str                      #: callee method/function name
    receiver: str                  #: dotted receiver ("self.ring", "")
    line: int
    col: int
    handled: Tuple[str, ...]       #: error classes caught around the site
    held: Tuple[str, ...]          #: lock classes statically held here


@dataclass
class ResolvedCall:
    """A call site linked to its candidate targets."""

    site: CallSite
    targets: Tuple[str, ...]       #: target qualnames
    confident: bool


@dataclass
class FunctionInfo:
    """One function/method, digested."""

    qualname: str
    name: str
    path: str
    node: ast.FunctionDef
    cls: Optional["ClassModel"]
    effect: Effect = field(default_factory=Effect)
    calls: List[CallSite] = field(default_factory=list)
    spawns: List[CallSite] = field(default_factory=list)
    accesses: List[HeapAccess] = field(default_factory=list)
    #: fault-gated typed-error raise sites (the PD015.6 fault points):
    #: raises under a test lint's PD007 row accepts as an injector gate
    fault_raises: List[Tuple[str, Site]] = field(default_factory=list)
    acquire_sites: List[LockSite] = field(default_factory=list)
    wait_sites: List[LockSite] = field(default_factory=list)
    local_classes: Dict[str, str] = field(default_factory=dict)
    yields: bool = False           #: the body yields: a sim process
    #: released receiver -> some release of it sits in a finally
    releases: Dict[str, bool] = field(default_factory=dict)
    #: (method, line, col) of each ``self.m(...)`` expression statement
    self_calls: List[Tuple[str, int, int]] = field(default_factory=list)
    #: ``self.<method>`` handlers the body registers for IRQ delivery
    irq_handlers: List[str] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.node.lineno


class ClassModel:
    """One class definition, digested for method resolution."""

    def __init__(self, node: ast.ClassDef, path: str):
        self.node = node
        self.name = node.name
        self.path = path
        self.bases = [_dotted(b).rsplit(".", 1)[-1] for b in node.bases]
        self.methods: Dict[str, FunctionInfo] = {}
        #: self.X = ClassName(...)  ->  attr -> constructor name
        self.attr_classes: Dict[str, str] = {}
        #: self.X = StructInstance/StructView(...)  ->  (struct, kernel)
        self.attr_structs: Dict[str, Tuple[str, str]] = {}

    @property
    def pico_like(self) -> bool:
        return (any("PicoDriver" in b for b in self.bases)
                or any(m.startswith("fast_") for m in self.methods))


def _iter_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Yield ``root`` and descendants, not entering a def, class or
    lambda, ``root`` included: a lambda's body is not the enclosing
    function's code, whether it is assigned, returned or passed."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _child_defs(root: ast.AST) -> Iterator[ast.AST]:
    """The defs and classes under ``root``'s statements in source order,
    through compound statements but not into another def or class."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield child
        elif not isinstance(child, ast.expr):
            yield from _child_defs(child)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``m`` when ``node`` is ``self.m``, else None."""
    return (node.attr if isinstance(node, ast.Attribute)
            and _dotted(node.value) == "self" else None)


def _struct_binding(call: ast.Call) -> Optional[Tuple[str, str]]:
    """(struct, kernel) when ``call`` constructs a struct accessor."""
    last = _dotted(call.func).rsplit(".", 1)[-1]
    if last == "StructInstance":
        default = "linux"
    elif last == "StructView":
        default = "mckernel"
    elif last == "_view" or last.endswith("_view"):
        default = "mckernel"
    else:
        return None
    struct = "?"
    if call.args:
        arg0 = call.args[0]
        if (isinstance(arg0, ast.Constant) and isinstance(arg0.value, str)):
            struct = arg0.value
        elif (isinstance(arg0, ast.Subscript)
                and isinstance(arg0.slice, ast.Constant)
                and isinstance(arg0.slice.value, str)):
            struct = arg0.slice.value
    kernel = default
    for kw in call.keywords:
        if kw.arg == "kernel" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            kernel = kw.value.value
    return struct, kernel


def _module_facts(tree: ast.AST) -> Tuple[Dict[str, str], Set[str],
                                          Dict[ast.AST, List[ast.Assign]]]:
    """One walk of a module, in ``ast.walk`` order: its lock bindings
    (``self.sdma_lock = CrossKernelSpinLock(..., name="hfi1.sdma_submit")``
    binds ``self.sdma_lock`` and ``sdma_lock``), the names it imports
    anywhere with an absolute ``from X import name`` not under ``repro``,
    and per method of a class body its ``self.X = f(...)`` assignments,
    nested code included."""
    bindings: Dict[str, str] = {}
    foreign: Set[str] = set()
    self_calls: Dict[ast.AST, List[ast.Assign]] = {}
    todo = deque([(tree, ())])      # each node with the methods it is in
    while todo:
        node, methods = todo.popleft()
        in_class = isinstance(node, ast.ClassDef)
        # ast.iter_child_nodes, inlined: the walk is most of the cost
        for attr in node._fields:
            value = getattr(node, attr, None)
            for child in value if isinstance(value, list) else (value,):
                if isinstance(child, ast.AST):
                    todo.append((child, methods + (child,) if in_class
                                 and isinstance(child, ast.FunctionDef)
                                 else methods))
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] != "repro":
            foreign.update(alias.asname or alias.name for alias in node.names)
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        if methods and len(node.targets) == 1 \
                and _self_attr(node.targets[0]) is not None:
            for method in methods:
                self_calls.setdefault(method, []).append(node)
        if _dotted(node.value.func).rsplit(".", 1)[-1] \
                != "CrossKernelSpinLock":
            continue
        name = None
        for kw in node.value.keywords:
            if kw.arg == "name":
                name = _const_str(kw.value)
        if name is None:
            continue
        for target in node.targets:
            dotted = _dotted(target)
            bindings[dotted] = name
            bindings[dotted.rsplit(".", 1)[-1]] = name
    return bindings, foreign, self_calls


def _const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _FunctionScanner:
    """The one pass over a function body, tracking held locks, enclosing
    ``except``/``finally`` clauses and fault gating while collecting
    effects, lock sites and error constructions."""

    def __init__(self, program: "Program", fn: FunctionInfo,
                 lock_bindings: Dict[str, str]):
        self.program = program
        self.fn = fn
        self.lock_bindings = lock_bindings
        self.locals_structs: Dict[str, Tuple[str, str]] = {}
        self.in_finally = False
        self.released: Set[str] = set()     #: by the current leaf

    def scan(self) -> None:
        self._block(self.fn.node.body, (), frozenset(), False)

    # -- statement walk ----------------------------------------------------

    def _block(self, stmts: List[ast.stmt], held: Tuple[str, ...],
               handled: frozenset, faults: bool) -> Tuple[str, ...]:
        for stmt in stmts:
            held = self._stmt(stmt, held, handled, faults)
        return held

    def _stmt(self, stmt: ast.stmt, held: Tuple[str, ...],
              handled: frozenset, faults: bool) -> Tuple[str, ...]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return held
        if isinstance(stmt, ast.Try):
            caught = self.program.handler_classes(stmt)
            # handlers, else and finally see the held set at the end of
            # the body: the lock stays held until the finally releases it
            body_held = self._block(stmt.body, held, handled | caught,
                                    faults)
            for handler in stmt.handlers:
                self._block(handler.body, body_held, handled, faults)
            self._block(stmt.orelse, body_held, handled, faults)
            outer, self.in_finally = self.in_finally, True
            held = self._block(stmt.finalbody, body_held, handled, faults)
            self.in_finally = outer
            return held
        if isinstance(stmt, ast.If):
            self._exprs(stmt.test, held, handled, faults)
            body_faults = faults or "PD007" in gates_mentioned(stmt.test)
            self._block(stmt.body, held, handled, body_faults)
            self._block(stmt.orelse, held, handled, faults)
            return held
        if isinstance(stmt, ast.While):
            self._exprs(stmt.test, held, handled, faults)
            self._block(stmt.body, held, handled, faults)
            self._block(stmt.orelse, held, handled, faults)
            return held
        if isinstance(stmt, ast.For):
            self._exprs(stmt.iter, held, handled, faults)
            self._block(stmt.body, held, handled, faults)
            self._block(stmt.orelse, held, handled, faults)
            return held
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._exprs(item.context_expr, held, handled, faults)
            self._block(stmt.body, held, handled, faults)
            return held
        if isinstance(stmt, ast.Assign):
            self._bind(stmt)
            self._exprs(stmt.value, held, handled, faults)
            return held
        if isinstance(stmt, ast.Raise):
            self._raise(stmt, handled, faults)
            if stmt.exc is not None:
                self._exprs(stmt.exc, held, handled, faults)
            return held
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            callee = _self_attr(stmt.value.func)    # a bare self-call
            if callee is not None:
                self.fn.self_calls.append((callee, stmt.lineno,
                                           stmt.col_offset))
        # leaf statement: acquire extends the held set for what follows,
        # a release (usually in a finally) shrinks it
        acquired = self._acquire_class(stmt)
        self.released.clear()
        for sub in ast.iter_child_nodes(stmt):
            self._exprs(sub, held, handled, faults)
        if acquired is not None:
            return held + (acquired,)
        if self.released:
            return tuple(c for c in held if c not in self.released)
        return held

    # -- lock bookkeeping --------------------------------------------------

    def _lock_class(self, receiver: str) -> str:
        last = receiver.rsplit(".", 1)[-1]
        name = (self.lock_bindings.get(receiver)
                or self.lock_bindings.get(last))
        if name is not None:
            return name
        from ..core.lockclasses import REGISTRY
        declared = REGISTRY.by_attr(last)
        if declared is not None:
            return declared.name
        return f"?{last}"

    def _acquire_class(self, stmt: ast.stmt) -> Optional[str]:
        value = getattr(stmt, "value", None)
        if (isinstance(stmt, ast.Expr) and isinstance(value, ast.YieldFrom)
                and isinstance(value.value, ast.Call)
                and isinstance(value.value.func, ast.Attribute)
                and value.value.func.attr == "acquire"):
            return self._lock_class(_dotted(value.value.func.value))
        return None

    def _release(self, receiver: str) -> None:
        """Note a release for PD002 and for the current leaf's held set."""
        self.fn.releases[receiver] = (self.fn.releases.get(receiver, False)
                                      or self.in_finally)
        self.released.add(self._lock_class(receiver))

    # -- bindings ----------------------------------------------------------

    def _bind(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if isinstance(target, ast.Attribute) \
                and target.attr in ("irq_dispatcher", "error_dispatcher"):
            handler = _self_attr(stmt.value)
            if handler is not None:
                self.fn.irq_handlers.append(handler)
        if not isinstance(target, ast.Name) \
                or not isinstance(stmt.value, ast.Call):
            return
        binding = _struct_binding(stmt.value)
        if binding is not None:
            self.locals_structs[target.id] = binding
            return
        if isinstance(stmt.value.func, ast.Name):
            ctor = stmt.value.func.id
            if ctor in self.program.classes_by_name:
                self.fn.local_classes[target.id] = ctor

    # -- expression handling -----------------------------------------------

    def _exprs(self, root: ast.AST, held: Tuple[str, ...],
               handled: frozenset, faults: bool) -> None:
        for node in _iter_nodes(root):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self._yield(node, held)
            elif isinstance(node, ast.Raise):
                self._raise(node, handled, faults)
            elif isinstance(node, ast.Call):
                self._call(node, held, handled)

    def _yield(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        """Digest a timed wait (``yield *.timeout/wait(...)``, ``yield
        from *.delay(...)``) into a wait site and ``yield from
        X.acquire(kernel, ...)`` into an acquire site."""
        self.fn.yields = True
        call = node.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)):
            return
        attr = call.func.attr
        delegates = isinstance(node, ast.YieldFrom)
        if attr in (_DELAY_CALLS if delegates else _WAIT_CALLS):
            what = _dotted(call.func)
            self.fn.effect.timed_waits.add(Site(what, self.fn.path,
                                                node.lineno))
            self.fn.wait_sites.append(LockSite(
                what, call.lineno, call.col_offset, held))
        elif delegates and attr == "acquire":
            receiver = _dotted(call.func.value)
            cls = self._lock_class(receiver)
            self.fn.effect.acquires.add(cls)
            kernel = _const_str(call.args[0]) if call.args else None
            self.fn.acquire_sites.append(LockSite(
                cls, call.lineno, call.col_offset, held, receiver,
                kernel or "?", (node.lineno, node.col_offset)))

    def _raise(self, node: ast.Raise, handled: frozenset,
               faults: bool) -> None:
        if node.exc is None or not isinstance(node.exc, ast.Call):
            return
        errname = _dotted(node.exc.func).rsplit(".", 1)[-1]
        if errname not in self.program.error_classes:
            return
        site = Site(errname, self.fn.path, node.lineno)
        if not _error_covered(errname, set(handled),
                              self.program.error_hierarchy):
            self.fn.effect.raises_.add((errname, site))
        if faults:
            self.fn.fault_raises.append((errname, site))

    def _call(self, node: ast.Call, held: Tuple[str, ...],
              handled: frozenset) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name, receiver = func.id, ""
        elif isinstance(func, ast.Attribute):
            name, receiver = func.attr, _dotted(func.value)
        else:
            return
        segments = receiver.split(".") if receiver else []
        effect = self.fn.effect
        path, line = self.fn.path, node.lineno
        # constructions (incl. locally handled raises and errors passed
        # to callbacks) enter the error-site index
        if name in self.program.error_classes:
            self.program.error_sites.add((name, self.fn.name))
        # interrupt delivery and cross-kernel callback registration
        if receiver and name in ("deliver", "register"):
            self.fn.irq_handlers.extend(
                h for h in map(_self_attr, node.args) if h is not None)
        if name in SLEEP_SERVICES:
            effect.sleeps.add(Site(name, path, line))
        if name in _OFFLOAD_NAMES or "ikc" in segments:
            effect.offloads.add(Site(receiver + "." + name if receiver
                                     else name, path, line))
        if name == "get_user_pages":
            effect.unpinned.add(Site(name, path, line))
        if name in ("fires", "quiet_run") or "rng" in segments:
            effect.rng.add(Site(name, path, line))
        if segments and segments[-1] == "sim":
            if name in ("process", "spawn"):
                self._spawn(node, held, handled)
                return
            if name == "call":
                # the child runs in the caller's frame: the argument's
                # own call node (walked next) is the synchronous edge
                return
            if name in _DELAY_CALLS:
                return  # a timed wait site (``_yield``), not an edge
        if receiver and name == "release":
            self._release(receiver)
        if name in _NEVER_EDGE:
            self._accessor(node, name, receiver, held)
            return
        self.fn.calls.append(CallSite(
            name=name, receiver=receiver, line=line, col=node.col_offset,
            handled=tuple(sorted(handled)), held=held))

    def _spawn(self, node: ast.Call, held: Tuple[str, ...],
               handled: frozenset) -> None:
        if not node.args or not isinstance(node.args[0], ast.Call):
            return
        target = node.args[0].func
        if isinstance(target, ast.Attribute):
            name, receiver = target.attr, _dotted(target.value)
        elif isinstance(target, ast.Name):
            name, receiver = target.id, ""
        else:
            return
        self.fn.spawns.append(CallSite(
            name=name, receiver=receiver, line=node.lineno,
            col=node.col_offset,
            handled=tuple(sorted(handled)), held=held))

    def _accessor(self, node: ast.Call, name: str, receiver: str,
                  held: Tuple[str, ...]) -> None:
        """Digest ``x.get/set/add("field", ...)`` into heap accesses."""
        if name not in ("get", "set", "add"):
            return
        fieldname = _const_str(node.args[0]) if node.args else None
        if fieldname is None:
            return
        struct, kernel = self._receiver_struct(receiver)
        atomic = name == "add"      # .add models LOCK XADD
        if name == "set":
            if len(node.args) >= 3:
                atomic = bool(getattr(node.args[2], "value", False))
        elif name == "get":
            if len(node.args) >= 2:
                atomic = bool(getattr(node.args[1], "value", False))
        for kw in node.keywords:
            if kw.arg == "atomic":
                atomic = bool(getattr(kw.value, "value", False))
        kinds = {"get": ("read",), "set": ("write",),
                 "add": ("read", "write")}[name]
        for kind in kinds:
            self.fn.accesses.append(HeapAccess(
                struct=struct, field=fieldname, kernel=kernel, kind=kind,
                atomic=atomic, path=self.fn.path, line=node.lineno,
                func=self.fn.qualname, locks=held))

    def _receiver_struct(self, receiver: str) -> Tuple[str, str]:
        if receiver in self.locals_structs:
            return self.locals_structs[receiver]
        if receiver.startswith("self.") and self.fn.cls is not None:
            attr = receiver[5:]
            if attr in self.fn.cls.attr_structs:
                return self.fn.cls.attr_structs[attr]
        return "?", "?"


class Program:
    """The digested whole program and its derived graphs."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: List[ClassModel] = []
        self.classes_by_name: Dict[str, ClassModel] = {}
        self._class_name_counts: Dict[str, int] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.module_functions: Dict[str, List[str]] = {}
        self.error_hierarchy: Dict[str, List[str]] = {}
        self.error_classes: Set[str] = set()
        self.handled_anywhere: Set[str] = set()
        self.edges: Dict[str, List[ResolvedCall]] = {}
        self.spawn_edges: Dict[str, List[ResolvedCall]] = {}
        self.contexts: Dict[str, Set[str]] = {}
        self.effects: Dict[str, Effect] = {}
        #: tree-wide (errname, bare function name) construction index —
        #: the static side of sanitize's raised-error containment
        self.error_sites: Set[Tuple[str, str]] = set()
        #: field -> struct names, from EXTRACTION_MANIFEST-style dict
        #: literals (struct name -> [field, ...]); used to attribute
        #: accesses whose receiver type the scanner cannot see
        self.field_structs: Dict[str, Set[str]] = {}
        self._lock_bindings: Dict[str, Dict[str, str]] = {}
        #: module path -> names it imports from outside ``repro``
        self._foreign: Dict[str, Set[str]] = {}
        #: the module being digested: per method, its ``self.X =
        #: f(...)`` assignments (:func:`_module_facts`)
        self._self_calls: Dict[ast.AST, List[ast.Assign]] = {}
        #: every module read, parsed once; one that did not parse is a
        #: PD000 finding
        self.modules: List[astcache.ParsedModule] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, paths: Optional[Iterable[str]] = None) -> "Program":
        """Digest every module under ``paths`` (default: the installed
        ``repro`` tree) and compute contexts + the effect fixpoint."""
        from ..core import lockclasses
        lockclasses.ensure_declarations()
        program = cls()
        target = [default_root()] if paths is None else list(paths)
        program.modules = [astcache.parse_module(f)
                           for f in iter_python_files(target)]
        parsed = [m for m in program.modules if m.ok]
        for module in parsed:
            program._digest_module(module)
        program._link_classes()
        for fn in program.functions.values():
            _FunctionScanner(program, fn,
                             program._lock_bindings[fn.path]).scan()
        program._resolve_edges()
        program._infer_contexts()
        program._refine_accesses()
        program._fixpoint()
        return program

    def _digest_module(self, module: astcache.ParsedModule) -> None:
        (self._lock_bindings[module.path], self._foreign[module.path],
         self._self_calls) = _module_facts(module.tree)
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                self._digest_manifest(node)
        # defs under a module-level if/try/with/loop are module
        # functions too
        for node in _child_defs(module.tree):
            if isinstance(node, ast.ClassDef):
                self._digest_class(node, module.path)
            else:
                self._digest_function(node, module.path, None)

    def _digest_manifest(self, node: ast.Assign) -> None:
        """Digest ``*_MANIFEST = {"struct": ["field", ...], ...}``
        literals into the field -> struct attribution map."""
        if len(node.targets) != 1 \
                or not isinstance(node.targets[0], ast.Name) \
                or "MANIFEST" not in node.targets[0].id \
                or not isinstance(node.value, ast.Dict):
            return
        for key, value in zip(node.value.keys, node.value.values):
            struct = _const_str(key)
            if struct is None or not isinstance(value, (ast.List,
                                                        ast.Tuple)):
                continue
            for elt in value.elts:
                fieldname = _const_str(elt)
                if fieldname is not None:
                    self.field_structs.setdefault(fieldname, set()) \
                        .add(struct)

    def _digest_class(self, node: ast.ClassDef, path: str) -> None:
        model = ClassModel(node, path)
        self.classes.append(model)
        self._class_name_counts[model.name] = \
            self._class_name_counts.get(model.name, 0) + 1
        self.classes_by_name[model.name] = model
        for item in node.body:
            if isinstance(item, ast.Assign):     # a PicoDriver's manifest
                self._digest_manifest(item)
        for item in _child_defs(node):
            if isinstance(item, ast.ClassDef):
                self._digest_class(item, path)
                continue
            fn = self._digest_function(item, path, model)
            model.methods[item.name] = fn
            self.methods_by_name.setdefault(item.name, []) \
                .append(fn.qualname)
        # constructor-typed and struct-typed attributes, from every
        # method (probe()/attach() build state outside __init__)
        for item in node.body:
            for sub in self._self_calls.get(item, ()):
                attr = sub.targets[0].attr
                binding = _struct_binding(sub.value)
                if binding is not None:
                    model.attr_structs.setdefault(attr, binding)
                elif isinstance(sub.value.func, ast.Name):
                    model.attr_classes.setdefault(attr, sub.value.func.id)

    def _digest_function(self, node: ast.FunctionDef, path: str,
                         cls_model: Optional[ClassModel]) -> FunctionInfo:
        name = f"{cls_model.name}.{node.name}" if cls_model is not None \
            else node.name
        # same-named module files qualify by package path, and a name
        # defined twice in one file by its line
        fn = self._add_function(node, path, cls_model,
                                f"{os.path.basename(path)}::{name}",
                                f"{display_path(path)}::{name}")
        if cls_model is None:
            self.module_functions.setdefault(node.name, []) \
                .append(fn.qualname)
        self._digest_nested(node, path, cls_model, fn.qualname)
        return fn

    def _digest_nested(self, root: ast.AST, path: str,
                       cls_model: Optional[ClassModel],
                       parent: str) -> None:
        """Nested defs, at any depth, become their own (unlinked)
        functions ``parent.<locals>.name``, so their raise sites enter
        the error-site index (completion closures run in IRQ context and
        do raise); a class nested in them is a class of its own."""
        for node in _child_defs(root):
            if isinstance(node, ast.ClassDef):
                self._digest_class(node, path)
                continue
            self._add_function(node, path, cls_model,
                               f"{parent}.<locals>.{node.name}")
            self._digest_nested(node, path, cls_model, parent)

    def _add_function(self, node: ast.FunctionDef, path: str,
                      cls_model: Optional[ClassModel],
                      *names: str) -> FunctionInfo:
        """``node`` under the first free name of ``names``, or the last
        suffixed with its line."""
        qualname = next((q for q in names if q not in self.functions),
                        f"{names[-1]}@{node.lineno}")
        fn = FunctionInfo(qualname=qualname, name=node.name, path=path,
                          node=node, cls=cls_model)
        self.functions[qualname] = fn
        return fn

    def _link_classes(self) -> None:
        """Compute the error-class hierarchy and drop ambiguous class
        names from by-name resolution."""
        for name, count in self._class_name_counts.items():
            if count > 1:
                del self.classes_by_name[name]
        for model in self.classes:
            self.error_hierarchy[model.name] = list(model.bases)
        for model in self.classes:
            if self._derives_from(model.name, "ReproError"):
                self.error_classes.add(model.name)
        self.error_classes.add("ReproError")

    def _derives_from(self, name: str, ancestor: str) -> bool:
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            if current == ancestor:
                return True
            frontier.extend(self.error_hierarchy.get(current, ()))
        return False

    def handler_classes(self, node: ast.Try) -> frozenset:
        """Error classes genuinely handled by ``node``'s except clauses
        (a handler whose body re-raises bare does not count), with a
        side effect: they also enter the tree-wide handled set."""
        out: Set[str] = set()
        for handler in node.handlers:
            if any(isinstance(s, ast.Raise) and s.exc is None
                   for s in handler.body):
                continue
            if handler.type is None:
                continue
            types = (handler.type.elts
                     if isinstance(handler.type, ast.Tuple)
                     else [handler.type])
            for t in types:
                name = _dotted(t).rsplit(".", 1)[-1]
                out.add(name)
        self.handled_anywhere.update(out)
        return frozenset(out)

    # -- call-graph resolution ---------------------------------------------

    def _lookup_method(self, model: ClassModel,
                       name: str) -> Optional[str]:
        seen: Set[str] = set()
        frontier = [model]
        while frontier:
            current = frontier.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            if name in current.methods:
                return current.methods[name].qualname
            for base in current.bases:
                base_model = self.classes_by_name.get(base)
                if base_model is not None:
                    frontier.append(base_model)
        return None

    def _overrides(self, model: ClassModel, name: str) -> List[str]:
        """``name`` as every class deriving from ``model`` defines it: a
        base-class method handing out ``self.<name>`` may hand out any
        subclass's override."""
        return [sub.methods[name].qualname for sub in self.classes
                if sub is not model and name in sub.methods
                and self._derives_from(sub.name, model.name)]

    def _resolve(self, fn: FunctionInfo,
                 site: CallSite) -> Tuple[Tuple[str, ...], bool]:
        name, receiver = site.name, site.receiver
        if receiver == "self" and fn.cls is not None:
            target = self._lookup_method(fn.cls, name)
            if target is not None:
                return (target,), True
        if receiver.startswith("self.") and fn.cls is not None \
                and "." not in receiver[5:]:
            ctor = fn.cls.attr_classes.get(receiver[5:])
            model = self.classes_by_name.get(ctor) if ctor else None
            if model is not None:
                target = self._lookup_method(model, name)
                if target is not None:
                    return (target,), True
        if receiver and "." not in receiver \
                and receiver in fn.local_classes:
            model = self.classes_by_name.get(fn.local_classes[receiver])
            if model is not None:
                target = self._lookup_method(model, name)
                if target is not None:
                    return (target,), True
        if not receiver:
            if name in self._foreign[fn.path]:
                return (), False             # not a function of the tree
            model = self.classes_by_name.get(name)
            if model is not None:            # constructor call
                target = self._lookup_method(model, "__init__")
                return ((target,), True) if target else ((), True)
            funcs = self.module_functions.get(name, [])
            if len(funcs) == 1:
                return (funcs[0],), True
        if name in _GENERIC_NAMES or name.startswith("__"):
            return (), False
        candidates = list(self.methods_by_name.get(name, []))
        if not receiver:
            candidates += self.module_functions.get(name, [])
        if len(candidates) == 1:
            return (candidates[0],), True
        if 2 <= len(candidates) <= 4:
            return tuple(candidates), False
        return (), False

    def _resolve_edges(self) -> None:
        for qual, fn in self.functions.items():
            self.edges[qual] = []
            self.spawn_edges[qual] = []
            for site in fn.calls:
                targets, confident = self._resolve(fn, site)
                if targets:
                    self.edges[qual].append(
                        ResolvedCall(site, targets, confident))
            for site in fn.spawns:
                targets, confident = self._resolve(fn, site)
                if targets:
                    self.spawn_edges[qual].append(
                        ResolvedCall(site, targets, confident))

    # -- context inference -------------------------------------------------

    def _context_roots(self) -> Dict[str, Set[str]]:
        roots: Dict[str, Set[str]] = {}

        def mark(qualname: Optional[str], context: str) -> None:
            if qualname is not None:
                roots.setdefault(qualname, set()).add(context)

        for model in self.classes:
            parts = os.path.normpath(model.path).split(os.sep)
            if model.pico_like:
                for name, fn in model.methods.items():
                    if name.startswith("fast_"):
                        mark(fn.qualname, "lwk")
            if "mckernel" in parts:
                for name, fn in model.methods.items():
                    if name in ("_dispatch", "syscall"):
                        mark(fn.qualname, "lwk")
            if "linux" in parts and any("FileOps" in b
                                        for b in model.bases):
                for name, fn in model.methods.items():
                    if name in _FILE_OPS:
                        mark(fn.qualname, "linux")
        # IRQ registration sites: dispatcher assignment, interrupt
        # delivery, cross-kernel callback registration
        for fn in self.functions.values():
            if fn.cls is None:
                continue
            for attr in fn.irq_handlers:
                mark(self._lookup_method(fn.cls, attr), "irq")
                for qual in self._overrides(fn.cls, attr):
                    mark(qual, "irq")
        return roots

    def _spawn_context(self, spawner: FunctionInfo) -> Optional[str]:
        parts = os.path.normpath(spawner.path).split(os.sep)
        if "hw" not in parts:
            return None
        base = os.path.basename(spawner.path)
        if "hfi" in base:
            return "sdma-engine"
        if "fabric" in base:
            return "fabric"
        return "device"

    def _infer_contexts(self) -> None:
        self.contexts = {qual: set() for qual in self.functions}
        worklist: List[str] = []
        for qual, contexts in self._context_roots().items():
            self.contexts[qual].update(contexts)
            worklist.append(qual)
        # spawn targets inside the hardware layer run in engine context
        # regardless of who spawned them
        for qual, spawns in self.spawn_edges.items():
            override = self._spawn_context(self.functions[qual])
            if override is None:
                continue
            for rc in spawns:
                for target in rc.targets:
                    if override not in self.contexts[target]:
                        self.contexts[target].add(override)
                        worklist.append(target)
        while worklist:
            qual = worklist.pop()
            mine = self.contexts[qual]
            # contexts flow along confident sync edges and spawn edges
            for rc in self.edges.get(qual, []):
                if not rc.confident:
                    continue
                for target in rc.targets:
                    if not mine <= self.contexts[target]:
                        self.contexts[target].update(mine)
                        worklist.append(target)
            for rc in self.spawn_edges.get(qual, []):
                if self._spawn_context(self.functions[qual]) is not None:
                    continue
                for target in rc.targets:
                    if not mine <= self.contexts[target]:
                        self.contexts[target].update(mine)
                        worklist.append(target)

    # -- access refinement -------------------------------------------------

    def _refine_accesses(self) -> None:
        """Attribute accesses whose receiver the scanner could not type:
        a field that belongs to exactly one struct (per the extraction
        manifests and the receiver-typed accesses) names its struct, and
        a function running in exactly one kernel's contexts names its
        kernel.  Refined attribution is marked ``inferred`` so
        sanitize's containment check can treat it as soft."""
        fields: Dict[str, Set[str]] = {f: set(s)
                                       for f, s in self.field_structs.items()}
        for fn in self.functions.values():
            for access in fn.accesses:
                if access.struct != "?":
                    fields.setdefault(access.field, set()) \
                        .add(access.struct)
        for fn in self.functions.values():
            refined: List[HeapAccess] = []
            for access in fn.accesses:
                struct, kernel = access.struct, access.kernel
                inferred = access.inferred
                if struct == "?":
                    candidates = fields.get(access.field, set())
                    if len(candidates) == 1:
                        struct = next(iter(candidates))
                        inferred = True
                if kernel == "?":
                    contexts = self.contexts.get(access.func, set())
                    if contexts and contexts <= {"lwk"}:
                        kernel, inferred = "mckernel", True
                    elif contexts and contexts <= {"linux", "irq"}:
                        kernel, inferred = "linux", True
                if (struct, kernel, inferred) != (access.struct,
                                                  access.kernel,
                                                  access.inferred):
                    access = replace(access, struct=struct, kernel=kernel,
                                     inferred=inferred)
                refined.append(access)
            fn.accesses = refined

    # -- effect fixpoint ---------------------------------------------------

    def _fixpoint(self) -> None:
        self.effects = {qual: fn.effect.copy()
                        for qual, fn in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for qual in self.functions:
                eff = self.effects[qual]
                for rc in self.edges.get(qual, []):
                    for target in rc.targets:
                        if eff.absorb(self.effects[target],
                                      rc.site.handled,
                                      self.error_hierarchy):
                            changed = True

    # -- queries used by the checkers and the CLI --------------------------

    def entry_points(self) -> List[FunctionInfo]:
        """The Pico fast-path entry points (``fast_*`` of chassis)."""
        out = [fn for fn in self.functions.values()
               if fn.cls is not None and fn.cls.pico_like
               and fn.name.startswith("fast_")]
        return sorted(out, key=lambda fn: fn.qualname)

    def witness_chain(self, entry: str, offender) -> List[str]:
        """Shortest confident-first call chain from ``entry`` to a
        function whose *local* effect satisfies ``offender``."""
        parents: Dict[str, Optional[str]] = {entry: None}
        queue = [entry]
        goal: Optional[str] = None
        while queue and goal is None:
            qual = queue.pop(0)
            if offender(self.functions[qual].effect):
                goal = qual
                break
            for rc in self.edges.get(qual, []):
                for target in rc.targets:
                    if target not in parents:
                        parents[target] = qual
                        queue.append(target)
        if goal is None:
            return [entry]
        chain = [goal]
        while parents[chain[-1]] is not None:
            chain.append(parents[chain[-1]])
        chain.reverse()
        return chain

    def lock_nestings(self) -> Iterator[Tuple[FunctionInfo, str, str,
                                              LockSite, Optional[str]]]:
        """Every (function, held class, class taken, site, callee) in
        the tree, in (path, function) order.  An acquire nests its class
        under each class held there (callee None); a confident call made
        while a class is held nests, at the call, every class the callee
        may transitively acquire."""
        for fn in sorted(self.functions.values(),
                         key=lambda f: (f.path, f.qualname)):
            for site in fn.acquire_sites:
                for held in dict.fromkeys(site.held):
                    yield fn, held, site.what, site, None
            for rc in self.edges.get(fn.qualname, ()):
                if not rc.confident or not rc.site.held:
                    continue
                site = LockSite("", rc.site.line, 0, rc.site.held)
                for target in rc.targets:
                    for cls in sorted(self.effects[target].acquires):
                        for held in dict.fromkeys(rc.site.held):
                            yield fn, held, cls, site, target

    def all_accesses(self) -> List[HeapAccess]:
        """Every statically inferred shared-heap access, tree-wide."""
        out: List[HeapAccess] = []
        for fn in self.functions.values():
            out.extend(fn.accesses)
        return out

    def to_dot(self) -> str:
        """Graphviz call graph (confident solid, ambiguous dashed)."""
        lines = ["digraph picovet_calls {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=9, fontname="monospace"];']
        interesting: Set[str] = set()
        for qual, rcs in sorted(self.edges.items()):
            for rc in rcs:
                interesting.add(qual)
                interesting.update(rc.targets)
        for qual in sorted(interesting):
            contexts = ",".join(sorted(self.contexts.get(qual, ())))
            label = qual + (f"\\n[{contexts}]" if contexts else "")
            lines.append(f'  "{qual}" [label="{label}"];')
        for qual, rcs in sorted(self.edges.items()):
            for rc in rcs:
                style = "solid" if rc.confident else "dashed"
                for target in sorted(rc.targets):
                    lines.append(f'  "{qual}" -> "{target}" '
                                 f'[style={style}];')
        lines.append("}")
        return "\n".join(lines)

    def json_summary(self) -> Dict[str, object]:
        """Per-function contexts + transitive effects for ``--json``."""
        out: Dict[str, object] = {}
        for qual in sorted(self.functions):
            eff = self.effects[qual]
            summary = eff.summary()
            if not any(summary.values()) \
                    and not self.contexts.get(qual):
                continue
            out[qual] = {"contexts": sorted(self.contexts.get(qual, ())),
                         "effects": summary}
        return out
