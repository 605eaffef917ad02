"""PicoLockdep: cross-kernel lock-order analysis, dynamic and static.

Cross-kernel synchronization is the fragile heart of PicoDriver (paper
section 3.3): both kernels spin on the same shared-heap lock words, a
spinner cannot sleep, and no watchdog survives a deadlock that wedges
*both* kernels.  KSan (:mod:`repro.analysis.ksan`) catches data races;
this module catches the ordering bugs KSan cannot see, with two
cooperating views that judge lock order by one rule, the declared
hierarchy's :meth:`~repro.core.lockclasses.LockClassRegistry.order_problem`.

**Dynamic view** — :class:`LockdepValidator`, a Linux-lockdep-style
runtime monitor.  Install it as a :class:`~repro.hw.memory.SharedHeap`
monitor (it coexists with KSan through the heap's monitor fan) and as
the simulator's ``wait_monitor``.  Every
:class:`~repro.core.sync.CrossKernelSpinLock` acquisition is resolved
to its declared :mod:`~repro.core.lockclasses` class and pushed on a
per-context (kernel x process/IRQ) held stack; each acquisition under
held locks adds edges to a global lock-class dependency graph.  It
reports, with KSan-style provenance (both acquisition sites, kernels,
held stacks, sim timestamps):

* **hierarchy violations** — a nesting the order rule rejects: a class
  ranked at or below one held, or a held class taken again.  When the
  reverse nesting was seen earlier, the report lists it too, so an
  AB-BA names both paths even when this run never hangs;
* **IRQ inversions** — a class taken in the completion-IRQ top half
  that is also taken in process context ("with IRQs enabled");
* **held-across-wait** — a timed ``sim`` wait issued from inside a
  critical section, starving the peer kernel spinning on the word.

**Static view** — :func:`lock_graph`, a query over PicoVet's program
model (:class:`~repro.analysis.vet_effects.Program`).  The model's
scanner records every acquire site with the lock classes held there,
and the call graph carries each callee's transitive ``acquires``; the
:class:`LockGraph` (``python -m repro lockgraph``) is built from those.
Rules PD008 (declared-hierarchy order) and PD009 (no timed wait while a
cross-kernel lock is held) are checkers over the same model
(:mod:`repro.analysis.vet_checkers`); the graph itself judges nothing.

``python -m repro sanitize <experiment>`` cross-checks the views: every
dynamically observed dependency edge must appear in the static graph.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: instrumentation-layer files skipped when attributing a wait site
_SKIP_FILES = frozenset({"engine.py", "lockdep.py", "sync.py", "memory.py"})


def dynamic_edges(validators: Sequence["LockdepValidator"]
                  ) -> Dict[Tuple[str, str], "DepEdge"]:
    """The union of ``validators``' dependency edges (first seen wins)."""
    edges: Dict[Tuple[str, str], DepEdge] = {}
    for validator in validators:
        for key, edge in validator.dependency_edges().items():
            edges.setdefault(key, edge)
    return edges


# --- dynamic view ------------------------------------------------------------

def _frame_site(frame) -> str:
    """KSan-style ``file.py:line in function`` for a live frame."""
    if frame is None:
        return "<unknown>"
    base = os.path.basename(frame.f_code.co_filename)
    return f"{base}:{frame.f_lineno} in {frame.f_code.co_name}"


def _wait_site() -> str:
    """The first frame outside the instrumentation layers."""
    frame = sys._getframe(1)
    while frame is not None:
        base = os.path.basename(frame.f_code.co_filename)
        if base not in _SKIP_FILES:
            return f"{base}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return "<unknown>"  # pragma: no cover - frames always bottom out


@dataclass(frozen=True)
class LockAcquisition:
    """One attributed lock acquisition (kept for provenance)."""

    lock_name: str
    lock_class: str
    kernel: str
    context: str                   #: "process" or "irq"
    site: str                      #: "file.py:line in function"
    time: float                    #: simulation time of the grant
    rank: Optional[int]            #: declared hierarchy rank, if any
    held: Tuple[str, ...]          #: classes already held in this context

    def describe(self) -> str:
        """One-line rendering used inside lockdep reports."""
        held = "{" + ", ".join(self.held) + "}"
        rank = f" rank={self.rank}" if self.rank is not None else ""
        return (f"{self.lock_class}{rank} acquired by {self.kernel:8s} "
                f"[{self.context}] at t={self.time:.6g} holding {held} "
                f"— {self.site}")


class _LiveLock:
    """A currently held lock: its acquisition record plus the holder's
    critical-section frame (for held-across-wait attribution)."""

    __slots__ = ("lock", "acq", "frame")

    def __init__(self, lock, acq: LockAcquisition, frame):
        self.lock = lock
        self.acq = acq
        self.frame = frame


@dataclass(frozen=True)
class DepEdge:
    """First-observation witness of a lock-class dependency: ``dst`` was
    acquired while ``src`` was held."""

    src: str
    dst: str
    src_acq: LockAcquisition
    dst_acq: LockAcquisition

    def describe(self) -> List[str]:
        """Render the edge with both witness acquisitions."""
        return [f"{self.src} -> {self.dst}:",
                f"  {self.dst_acq.describe()}",
                f"  while holding: {self.src_acq.describe()}"]


@dataclass
class LockdepReport:
    """One lock-ordering hazard with full provenance."""

    kind: str                      #: hierarchy-violation |
    #: irq-inversion | held-across-wait
    title: str
    details: Tuple[str, ...]

    def render(self) -> str:
        """Multi-line report: headline plus indented provenance."""
        lines = [f"lockdep {self.kind}: {self.title}"]
        lines.extend(f"  {line}" for line in self.details)
        return "\n".join(lines)


class LockdepValidator:
    """The runtime deadlock validator.

    Install with ``heap.add_monitor(validator)`` (of the heap monitor
    protocol it implements only the lock hooks) and
    ``sim.wait_monitor = validator``.  One validator per machine is
    enough — the dependency graph is global by design, since AB-BA
    inversions span kernels and nodes.
    """

    def __init__(self, sim=None, name: str = "lockdep"):
        from ..core.lockclasses import ensure_declarations
        ensure_declarations()  # judge by the whole hierarchy, as PD008 does
        self.sim = sim
        self.name = name
        self.reports: List[LockdepReport] = []
        #: per-context held stacks, keyed "kernel/context"
        self._held: Dict[str, List[_LiveLock]] = {}
        self._edges: Dict[Tuple[str, str], DepEdge] = {}
        #: lock class -> context -> first acquisition seen there
        self._usage: Dict[str, Dict[str, LockAcquisition]] = {}
        self._acquisitions = 0
        self._reported_orders: Set[Tuple[str, str]] = set()
        self._reported_inversions: Set[str] = set()
        self._reported_waits: Set[Tuple[str, str]] = set()

    # -- heap monitor protocol (no-ops: lockdep ignores data accesses) ----

    def annotate(self, kernel: str, label: str,
                 atomic: bool = False) -> None:
        """No-op: access labeling is KSan's concern."""

    def on_access(self, kind: str, addr: int, size: int, heap) -> None:
        """No-op: data accesses are KSan's concern."""

    # -- instrumentation entry points ------------------------------------

    def on_lock_acquired(self, lock, kernel: str, frame) -> None:
        """A :class:`CrossKernelSpinLock` was granted to ``kernel``;
        ``frame`` is the holder's critical-section frame."""
        from ..core.lockclasses import REGISTRY
        from ..hw.irq import in_irq
        declared = REGISTRY.get(lock.name)
        context = "irq" if in_irq(kernel) else "process"
        key = f"{kernel}/{context}"
        stack = self._held.setdefault(key, [])
        acq = LockAcquisition(
            lock_name=lock.name, lock_class=lock.name, kernel=kernel,
            context=context, site=_frame_site(frame), time=self._now(),
            rank=None if declared is None else declared.rank,
            held=tuple(lv.acq.lock_class for lv in stack))
        self._acquisitions += 1
        self._track_usage(acq)
        for live in stack:
            pair = (live.acq.lock_class, acq.lock_class)
            self._check_order(pair, live.acq, acq)
            if pair not in self._edges:
                self._edges[pair] = DepEdge(*pair, live.acq, acq)
        stack.append(_LiveLock(lock, acq, frame))

    def on_lock_released(self, lock, kernel: str) -> None:
        """``kernel`` released ``lock``; pop it from its held stack."""
        for context in ("process", "irq"):
            stack = self._held.get(f"{kernel}/{context}")
            if not stack:
                continue
            for idx in range(len(stack) - 1, -1, -1):
                if stack[idx].lock is lock:
                    del stack[idx]
                    return

    def on_timed_wait(self, delay: float) -> None:
        """Simulator hook: a positive-delay timeout was created.  If the
        creating call chain belongs to a critical section that holds a
        cross-kernel lock, the spinning peer kernel starves for the
        whole wait — report it."""
        if not any(self._held.values()):
            return
        chain: Set[int] = set()
        frame = sys._getframe(1)
        while frame is not None:
            chain.add(id(frame))
            frame = frame.f_back
        for stack in self._held.values():
            for live in stack:
                if id(live.frame) not in chain:
                    continue
                site = _wait_site()
                dedup = (live.acq.lock_class, site)
                if dedup in self._reported_waits:
                    continue
                self._reported_waits.add(dedup)
                held = [lv.acq for lv in stack]
                details = [f"timed wait of {delay:.6g} at t={self._now():.6g}"
                           f" — {site}",
                           "while holding:"]
                details.extend(f"  {acq.describe()}" for acq in held)
                self.reports.append(LockdepReport(
                    kind="held-across-wait",
                    title=(f"{live.acq.kernel} waits {delay:.6g} holding "
                           f"{live.acq.lock_class}; the peer kernel spins "
                           f"on the lock word for the whole wait"),
                    details=tuple(details)))

    # -- results ----------------------------------------------------------

    def dependency_edges(self) -> Dict[Tuple[str, str], DepEdge]:
        """The observed lock-class dependency edges (first witnesses)."""
        return dict(self._edges)

    def acquired_classes(self) -> Set[str]:
        """Every lock class this validator saw acquired (the dynamic
        side of sanitize's acquired-class containment)."""
        return set(self._usage)

    def summary(self) -> str:
        """One-line status for the sanitize CLI."""
        status = (f"{len(self.reports)} finding(s)" if self.reports
                  else "no findings")
        return (f"[{self.name}] {status}; {self._acquisitions} "
                f"acquisition(s), {len(self._usage)} lock class(es), "
                f"{len(self._edges)} dependency edge(s)")

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _track_usage(self, acq: LockAcquisition) -> None:
        usage = self._usage.setdefault(acq.lock_class, {})
        usage.setdefault(acq.context, acq)
        if ("irq" in usage and "process" in usage
                and acq.lock_class not in self._reported_inversions):
            self._reported_inversions.add(acq.lock_class)
            self.reports.append(LockdepReport(
                kind="irq-inversion",
                title=(f"{acq.lock_class} is taken in the IRQ top half "
                       f"and with IRQs enabled; the top half can spin on "
                       f"its own interrupted critical section"),
                details=(f"irq:     {usage['irq'].describe()}",
                         f"process: {usage['process'].describe()}")))

    def _check_order(self, pair: Tuple[str, str], outer: LockAcquisition,
                     inner: LockAcquisition) -> None:
        """Report the nesting ``pair`` (held, taken) once if the order
        rule rejects it, with the reverse nesting if seen earlier."""
        from ..core.lockclasses import REGISTRY
        if pair in self._reported_orders:
            return
        problem = REGISTRY.order_problem(*pair)
        if problem is None:
            return
        self._reported_orders.add(pair)
        details = [f"inner: {inner.describe()}",
                   f"outer: {outer.describe()}"]
        reverse = self._edges.get(pair[::-1])
        if reverse is not None:
            details.append("reverse order seen earlier (AB-BA):")
            details.extend(f"  {line}" for line in reverse.describe())
        self.reports.append(LockdepReport(
            kind="hierarchy-violation", title=f"{inner.kernel} {problem}",
            details=tuple(details)))


# --- static view -------------------------------------------------------------

@dataclass(frozen=True)
class StaticEdge:
    """Compile-time dependency: ``dst`` acquired at ``path:line`` (in
    ``func``, by ``kernel``; ``?`` when a callee takes it) while ``src``
    was held."""

    src: str
    dst: str
    path: str
    line: int
    func: str
    kernel: str

    def describe(self) -> str:
        """One-line rendering with the witness site and kernel."""
        return (f"{self.src} -> {self.dst}  [{self.path}:{self.line} in "
                f"{self.func}, kernel={self.kernel}]")


class LockGraph:
    """The compile-time lock-class graph extracted by the static pass."""

    def __init__(self) -> None:
        self.ranks: Dict[str, Optional[int]] = {}
        self.sites: Dict[str, List[str]] = {}
        self.edges: Dict[Tuple[str, str], StaticEdge] = {}

    def note_acquire(self, cls: str, rank: Optional[int],
                     site: str) -> None:
        """Record an acquisition site of lock class ``cls``."""
        self.ranks.setdefault(cls, rank)
        sites = self.sites.setdefault(cls, [])
        if site not in sites:
            sites.append(site)

    def add_edge(self, edge: StaticEdge) -> None:
        """Add a dependency edge, keeping the first witness."""
        self.edges.setdefault((edge.src, edge.dst), edge)

    def has_edge(self, src: str, dst: str) -> bool:
        """True if the graph contains the ``src -> dst`` dependency."""
        return (src, dst) in self.edges

    def to_dot(self) -> str:
        """Graphviz rendering (CI uploads this as an artifact)."""
        lines = ["digraph picodriver_locks {", "  rankdir=LR;",
                 '  node [shape=box, fontname="monospace"];']
        for cls in sorted(self.ranks):
            rank = self.ranks[cls]
            label = cls if rank is None else f"{cls}\\nrank {rank}"
            lines.append(f'  "{cls}" [label="{label}"];')
        for (src, dst), edge in sorted(self.edges.items()):
            base = os.path.basename(edge.path)
            lines.append(f'  "{src}" -> "{dst}" '
                         f'[label="{base}:{edge.line}"];')
        lines.append("}")
        return "\n".join(lines)

    def render(self) -> str:
        """Human-readable classes, acquisition sites and edges."""
        lines = ["lock classes:"]
        for cls in sorted(self.ranks,
                          key=lambda c: (self.ranks[c] is None,
                                         self.ranks[c], c)):
            rank = self.ranks[cls]
            tag = "undeclared" if rank is None else f"rank {rank}"
            lines.append(f"  {cls} ({tag})")
            for site in self.sites.get(cls, []):
                lines.append(f"    acquired at {site}")
        lines.append("dependency edges:")
        if not self.edges:
            lines.append("  (none: no nested acquisition in the tree)")
        for _key, edge in sorted(self.edges.items()):
            lines.append(f"  {edge.describe()}")
        return "\n".join(lines)


def lock_graph(program) -> LockGraph:
    """The compile-time lock graph of a PicoVet
    :class:`~repro.analysis.vet_effects.Program`: every acquire site,
    an edge from each class held there, and — for each confident call
    made while a class is held — an edge from it to every class the
    callee may transitively acquire."""
    from ..core.lockclasses import REGISTRY
    from .lint import display_path
    from .vet_checkers import _short
    graph = LockGraph()
    for fn in sorted(program.functions.values(),
                     key=lambda f: (f.path, f.qualname)):
        for site in fn.acquire_sites:
            graph.note_acquire(site.what, REGISTRY.rank_of(site.what),
                               f"{display_path(fn.path)}:{site.line} in "
                               f"{_short(fn.qualname)}")
    for fn, held, cls, site, _callee in program.lock_nestings():
        graph.add_edge(StaticEdge(held, cls, display_path(fn.path),
                                  site.line, _short(fn.qualname),
                                  site.kernel))
    return graph
