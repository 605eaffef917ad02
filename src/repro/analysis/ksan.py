"""KSan: an Eraser-style lockset race detector for the shared kernel heap.

The paper's porting rules (section 3.3) require every piece of Linux
driver state touched by the McKernel fast path to be protected by a
*shared* spin lock with compatible implementations.  Nothing in the
model enforced that — a PicoDriver could silently write ``sdma_state``
without ``hfi1.sdma_submit`` and the simulation would happily produce
numbers.  KSan closes that hole with the classic lockset discipline of
Eraser (Savage et al., SOSP '97), adapted to the two-kernel setting:

* Every :class:`~repro.hw.memory.SharedHeap` read/write is reported to
  an installed :class:`RaceDetector` (``heap.monitor``).  The accessor
  layers (:class:`~repro.core.structs.StructInstance`,
  :class:`~repro.core.structs.StructView`,
  :class:`~repro.core.sync.CrossKernelSpinLock`) annotate each access
  with the performing kernel, a ``struct.field`` label and whether the
  access models an atomic instruction (``LOCK XADD`` / ``cmpxchg``).

* The detector maintains, per heap word, the *candidate lockset* — the
  intersection of the cross-kernel spin locks held over every
  non-atomic access since the word became shared between kernels.
  Words in their single-kernel initialisation phase are exempt
  (Eraser's *exclusive* state), so Linux building driver structures in
  ``probe()``/``open()`` before handing them to the LWK does not alarm.

* A word written by two different kernels with an empty candidate
  lockset and at least one non-atomic write is a race: it is reported
  immediately with both access sites, simulation timestamps, the
  locksets held at each access, and the recent lock holder history.

Accesses that model atomic hardware instructions never refine the
candidate lockset and never count as racy writes — this is how the
driver's ``atomic_t``-style reference counts (``user_sdma_pkt_q.n_reqs``)
are expressed race-free without a lock.

Granularity note: words are keyed by ``(address, size)`` exactly as
accessed.  Driver state is only ever accessed through ABI/DWARF field
offsets, so both kernels use identical keys; overlapping accesses of
*different* widths to the same bytes are not correlated.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

#: instrumentation-layer files skipped when attributing an access site
_SKIP_FILES = frozenset({"memory.py", "structs.py", "extract.py", "ksan.py"})


def _call_site(depth: int = 2) -> str:
    """``file.py:line in function`` of the first frame outside the
    instrumentation layers (the driver/experiment code that accessed)."""
    frame = sys._getframe(depth)
    while frame is not None:
        base = os.path.basename(frame.f_code.co_filename)
        if base not in _SKIP_FILES:
            return f"{base}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return "<unknown>"  # pragma: no cover - frames always bottom out


@dataclass(frozen=True)
class HeapAccess:
    """One attributed shared-heap access (a sample kept for provenance)."""

    kernel: str
    kind: str                      #: "read" or "write"
    addr: int
    size: int
    label: str                     #: "struct.field" (or "lock:<name>")
    site: str                      #: "file.py:line in function"
    time: float                    #: simulation time of the access
    lockset: FrozenSet[str]        #: cross-kernel locks held by ``kernel``
    atomic: bool                   #: models an atomic instruction

    def describe(self) -> str:
        """One-line rendering used inside race reports."""
        held = "{" + ", ".join(sorted(self.lockset)) + "}"
        return (f"{self.kind:5s} from {self.kernel:8s} at t={self.time:.6g} "
                f"locks={held}{' [atomic]' if self.atomic else ''} "
                f"— {self.site}")


@dataclass
class RaceReport:
    """A cross-kernel lockset violation on one shared-heap word."""

    addr: int
    size: int
    label: str
    #: the conflicting accesses: first write per kernel, plus the access
    #: that completed the violation
    accesses: Tuple[HeapAccess, ...]
    #: recent (time, lock, kernel, event) lock transitions for context
    holder_history: Tuple[Tuple[float, str, str, str], ...] = ()

    def render(self) -> str:
        """Multi-line human-readable report with full provenance."""
        lines = [f"race on {self.label} ({self.size} bytes at "
                 f"{self.addr:#018x}): lockset intersection is empty"]
        for acc in self.accesses:
            lines.append(f"  {acc.describe()}")
        if self.holder_history:
            lines.append("  lock holder history (oldest first):")
            for when, lock, kernel, event in self.holder_history:
                lines.append(f"    t={when:.6g} {kernel} {event} {lock}")
        return "\n".join(lines)


class _WordState:
    """Per-word Eraser state: exclusive/shared phase, candidate lockset,
    writer bookkeeping and provenance samples."""

    __slots__ = ("label", "first_kernel", "shared", "candidate", "writers",
                 "nonatomic_writers", "samples", "reported")

    def __init__(self, kernel: str, label: str):
        self.label = label
        self.first_kernel = kernel
        self.shared = False
        #: None means "top" — every lock — i.e. not refined yet
        self.candidate: Optional[Set[str]] = None
        self.writers: Set[str] = set()
        self.nonatomic_writers: Set[str] = set()
        #: first access per (kernel, kind) — the provenance samples
        self.samples: Dict[Tuple[str, str], HeapAccess] = {}
        self.reported = False


class RaceDetector:
    """The KSan monitor: install on a heap via ``heap.monitor = detector``.

    The accessor layers call :meth:`annotate` immediately before the raw
    heap operation (everything runs single-threaded inside the
    discrete-event simulator, so the one-slot annotation cannot be
    interleaved), and :class:`~repro.hw.memory.SharedHeap` calls
    :meth:`on_access` from inside ``read``/``write``.  Lock transitions
    arrive through :meth:`on_lock_acquired`/:meth:`on_lock_released`.
    """

    def __init__(self, sim=None, name: str = "ksan"):
        self.sim = sim
        self.name = name
        self.races: List[RaceReport] = []
        self._held: Dict[str, Set[str]] = {}
        self._words: Dict[Tuple[int, int], _WordState] = {}
        self._pending: Optional[Tuple[Optional[str], str, bool]] = None
        self._lock_history: Deque[Tuple[float, str, str, str]] = deque(
            maxlen=32)
        #: raw heap accesses seen without an annotation (unattributed —
        #: allocator bookkeeping, test pokes); excluded from the analysis
        self.unattributed = 0

    # -- instrumentation entry points ------------------------------------

    def annotate(self, kernel: Optional[str], label: str = "",
                 atomic: bool = False) -> None:
        """Declare the attribution of the *next* heap access (one-shot)."""
        self._pending = (kernel, label, atomic)

    def on_lock_acquired(self, lock_name: str, kernel: str) -> None:
        """A :class:`CrossKernelSpinLock` was granted to ``kernel``."""
        self._held.setdefault(kernel, set()).add(lock_name)
        self._lock_history.append((self._now(), lock_name, kernel,
                                   "acquired"))

    def on_lock_released(self, lock_name: str, kernel: str) -> None:
        """``kernel`` released a :class:`CrossKernelSpinLock`."""
        self._held.get(kernel, set()).discard(lock_name)
        self._lock_history.append((self._now(), lock_name, kernel,
                                   "released"))

    def on_free(self, addr: int, size: int, heap) -> None:
        """Heap hook: an allocation was freed — drop the shadow state of
        every word inside it, so a recycled address starts a fresh
        Eraser history instead of inheriting the dead object's."""
        stale = [key for key in self._words
                 if addr <= key[0] < addr + size]
        for key in stale:
            del self._words[key]

    def on_access(self, kind: str, addr: int, size: int, heap) -> None:
        """Heap hook: fold one read/write into the lockset analysis."""
        pending, self._pending = self._pending, None
        if pending is None or pending[0] is None:
            self.unattributed += 1
            return
        kernel, label, atomic = pending
        lockset = frozenset(self._held.get(kernel, ()))
        access = HeapAccess(kernel=kernel, kind=kind, addr=addr, size=size,
                            label=label, site=_call_site(2), time=self._now(),
                            lockset=lockset, atomic=atomic)
        key = (addr, size)
        state = self._words.get(key)
        if state is None:
            state = self._words[key] = _WordState(kernel, label)
        if label:
            state.label = label
        state.samples.setdefault((kernel, kind), access)
        if kind == "write":
            state.writers.add(kernel)
            if not atomic:
                state.nonatomic_writers.add(kernel)
        # Eraser phases: no lockset refinement while a single kernel owns
        # the word; refinement starts at the access that shares it.
        if state.shared or kernel != state.first_kernel:
            state.shared = True
            if not atomic:
                if state.candidate is None:
                    state.candidate = set(lockset)
                else:
                    state.candidate &= lockset
        self._check(state, access)

    # -- results ----------------------------------------------------------

    def words_tracked(self) -> int:
        """Number of distinct shared-heap words seen with attribution."""
        return len(self._words)

    def summary(self) -> str:
        """One-line status for the sanitizer CLI."""
        status = (f"{len(self.races)} race(s)" if self.races
                  else "no races")
        return (f"[{self.name}] {status}; {self.words_tracked()} words "
                f"tracked, {self.unattributed} unattributed accesses")

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _check(self, state: _WordState, access: HeapAccess) -> None:
        """Report the word once when the Eraser condition trips."""
        if (state.reported or not state.shared
                or len(state.writers) < 2
                or not state.nonatomic_writers
                or state.candidate is None or state.candidate):
            return
        state.reported = True
        # both access sites: first write per kernel, plus the access that
        # completed the violation if it is not one of those already
        picked = [state.samples[key] for key in sorted(state.samples)
                  if key[1] == "write"]
        if access not in picked:
            picked.append(access)
        self.races.append(RaceReport(
            addr=access.addr, size=access.size, label=state.label,
            accesses=tuple(picked),
            holder_history=tuple(self._lock_history)))
