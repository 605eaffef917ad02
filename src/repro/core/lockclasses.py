"""Declared cross-kernel lock classes and their acquisition hierarchy.

Linux lockdep reasons about lock *classes*, not lock instances: every
lock is registered under a class carrying its name and its place in the
kernel's documented acquisition order.  PicoDriver needs the same notion
more than Linux does — here two *kernels* spin on the same shared-heap
lock words (paper section 3.3), so an AB-BA inversion does not merely
deadlock one machine, it wedges both kernels with no one left to run a
watchdog.

This module is the registry both views of the analyzer share, and it
holds their one order rule, :meth:`LockClassRegistry.order_problem`:

* the *dynamic* validator (:mod:`repro.analysis.lockdep`) resolves every
  :class:`~repro.core.sync.CrossKernelSpinLock` to its class by lock
  name and judges each observed nesting with it;
* the *static* pass (PicoVet's program model; vet rule PD008 and
  ``python -m repro lockgraph``) resolves ``X.acquire(...)`` sites to
  classes through constructor ``name=`` bindings and the ``attrs`` map
  below, and judges each compile-time nesting with it.

The rule is the Linux one: locks must be acquired in **strictly
increasing rank order**, and a held class is never taken again.  Ranks
strictly increase along every legal nesting, so a cycle among ranked
classes (an AB-BA deadlock) always contains a nesting the rule rejects,
and no separate cycle search is needed.  Ranks are sparse so subsystems
can be inserted between existing levels.

Declarations live next to the lock owners (``linux/hfi1/driver.py``,
``linux/pxd/driver.py``, ``mckernel/kernel.py``) and their users
(``core/hfi_pico.py``, ``core/pxd_pico.py``); this module only hosts
the mechanism, so it stays import-light (the static pass must be able
to load it without dragging in the whole simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError


@dataclass(frozen=True)
class LockClass:
    """One declared cross-kernel lock class.

    ``rank`` orders the acquisition hierarchy (take lower ranks first);
    ``attrs`` lists the attribute names instances conventionally live
    under, so the static pass can resolve ``self.foo.sdma_lock`` without
    seeing the constructor.
    """

    name: str
    rank: int
    subsystem: str
    doc: str = ""
    attrs: Tuple[str, ...] = ()
    #: subsystems that acquire this class without owning it (declared
    #: via :func:`declare_lock_use`)
    users: Tuple[str, ...] = field(default_factory=tuple, compare=False)


class LockClassRegistry:
    """The process-wide table of declared lock classes."""

    def __init__(self) -> None:
        self._classes: Dict[str, LockClass] = {}
        self._by_attr: Dict[str, str] = {}

    def declare(self, name: str, rank: int, subsystem: str, doc: str = "",
                attrs: Tuple[str, ...] = ()) -> LockClass:
        """Register a lock class; idempotent for identical redeclaration.

        A *conflicting* redeclaration (same name, different rank or
        owner) is a protocol bug and raises :class:`ReproError` — two
        subsystems disagreeing about a lock's place in the hierarchy is
        exactly the confusion the hierarchy exists to prevent.
        """
        cls = LockClass(name=name, rank=rank, subsystem=subsystem,
                        doc=doc, attrs=tuple(attrs))
        existing = self._classes.get(name)
        if existing is not None:
            if (existing.rank, existing.subsystem, existing.attrs) != \
                    (cls.rank, cls.subsystem, cls.attrs):
                raise ReproError(
                    f"conflicting lock-class declaration for {name!r}: "
                    f"rank {existing.rank} ({existing.subsystem}) vs "
                    f"rank {cls.rank} ({cls.subsystem})")
            return existing
        self._classes[name] = cls
        for attr in cls.attrs:
            self._by_attr[attr] = name
        return cls

    def declare_use(self, name: str, subsystem: str) -> None:
        """Record that ``subsystem`` acquires class ``name`` it does not
        own (e.g. the pico fast path taking the hfi1 submit lock)."""
        cls = self._classes.get(name)
        if cls is None:
            raise ReproError(
                f"declare_use of unknown lock class {name!r}; declare "
                f"the class (with a rank) before declaring users")
        if subsystem not in cls.users:
            self._classes[name] = LockClass(
                name=cls.name, rank=cls.rank, subsystem=cls.subsystem,
                doc=cls.doc, attrs=cls.attrs,
                users=cls.users + (subsystem,))

    def get(self, name: str) -> Optional[LockClass]:
        """The class declared under ``name``, or None if undeclared."""
        return self._classes.get(name)

    def by_attr(self, attr: str) -> Optional[LockClass]:
        """Resolve an instance attribute name (e.g. ``sdma_lock``)."""
        name = self._by_attr.get(attr)
        return None if name is None else self._classes[name]

    def rank_of(self, name: str) -> Optional[int]:
        """The declared rank of ``name``, or None if undeclared."""
        cls = self._classes.get(name)
        return None if cls is None else cls.rank

    def order_problem(self, held: str, name: str) -> Optional[str]:
        """Why taking class ``name`` while holding ``held`` breaks the
        declared order, or None when it does not.

        The one lock-order rule: re-taking a held class, ranked or not,
        or taking a class ranked at or below a held one.  A nesting
        with an undeclared class on either side is not judged.
        """
        if name == held:
            return (f"takes lock class {name} while already holding it; "
                    f"the spinning acquirer never sees its own release")
        rank, held_rank = self.rank_of(name), self.rank_of(held)
        if rank is None or held_rank is None or rank > held_rank:
            return None
        return (f"takes {name} (rank {rank}) while holding {held} (rank "
                f"{held_rank}); the declared hierarchy is rank-increasing")

    def classes(self) -> List[LockClass]:
        """All declared classes, outermost (lowest rank) first."""
        return sorted(self._classes.values(),
                      key=lambda c: (c.rank, c.name))

    def hierarchy_table(self) -> str:
        """Human-readable hierarchy (lockgraph output / DESIGN.md)."""
        lines = ["rank  class                 owner           "
                 "acquired by",
                 "----  --------------------  --------------  "
                 "-----------"]
        for cls in self.classes():
            users = ", ".join((cls.subsystem,) + cls.users)
            lines.append(f"{cls.rank:4d}  {cls.name:20s}  "
                         f"{cls.subsystem:14s}  {users}")
        return "\n".join(lines)


#: the process-wide registry; lock owners declare into it at import time
REGISTRY = LockClassRegistry()


def declare_lock_class(name: str, rank: int, subsystem: str, doc: str = "",
                       attrs: Tuple[str, ...] = ()) -> LockClass:
    """Module-level convenience over :meth:`LockClassRegistry.declare`."""
    return REGISTRY.declare(name, rank, subsystem, doc, attrs)


def declare_lock_use(name: str, subsystem: str) -> None:
    """Module-level convenience over
    :meth:`LockClassRegistry.declare_use`."""
    REGISTRY.declare_use(name, subsystem)


def ensure_declarations() -> None:
    """Import every module that declares a lock class or a lock use.

    The static pass and the lockgraph CLI need the full hierarchy
    without having built a machine first; importing the declaring
    modules is enough because declarations run at module import.
    """
    from ..linux.hfi1 import driver as _hfi1_driver  # noqa: F401
    from ..linux.pxd import driver as _pxd_driver  # noqa: F401
    from ..mckernel import kernel as _mckernel  # noqa: F401
    from . import hfi_pico as _hfi_pico  # noqa: F401
    from . import pxd_pico as _pxd_pico  # noqa: F401
