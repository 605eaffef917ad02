"""C structure layout modeling and the blessed heap accessors.

The simulated Linux HFI1 driver keeps its state in :class:`CStructDef`-shaped
objects stored in the node's byte-backed kernel heap.  Offsets follow the
System V x86_64 ABI (natural alignment, trailing padding to the largest
member alignment), so layouts shift realistically when a driver update adds,
removes or reorders fields — exactly the drift that makes hand-copied
headers fragile (paper section 3.2).

This module (together with :mod:`repro.core.sync`) is the only place in
``repro.core`` allowed to touch raw :class:`~repro.hw.memory.SharedHeap`
words (lint rule PD005): :class:`StructInstance` is the owning driver's
view of a structure, :class:`StructView` is the LWK's DWARF-derived view
of the same bytes.  Both carry the accessing kernel and annotate every
access for the KSan race detector (:mod:`repro.analysis.ksan`), and both
offer :meth:`StructInstance.add`, an atomic read-modify-write modeling
the ``LOCK XADD`` behind Linux ``atomic_t`` counters — which is how the
driver's cross-kernel reference counts stay race-free without a lock.

Every field is looked up once.  A :class:`CStructDef` and each
extracted layout (:class:`repro.core.extract.ExtractedLayout`) build a
*field table* when they are made: field name to ``(offset, element
size, count, signed, KSan label)``.  ``get``/``set``/``add`` read one
entry of it and go straight to :meth:`SharedHeap.read_u` /
:meth:`~repro.hw.memory.SharedHeap.write_u`.  The checks, their error
messages and the monitor calls (``annotate``, then the heap's
``on_access``) are the same as a field-by-field lookup would make.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..hw.memory import SharedHeap


@dataclass(frozen=True)
class CType:
    """A primitive C type: name, byte size and alignment."""

    name: str
    size: int
    align: int
    signed: bool = False


U8 = CType("unsigned char", 1, 1)
U16 = CType("unsigned short", 2, 2)
U32 = CType("unsigned int", 4, 4)
U64 = CType("unsigned long", 8, 8)
S32 = CType("int", 4, 4, signed=True)
S64 = CType("long", 8, 8, signed=True)
PTR = CType("void *", 8, 8)


def ENUM(name: str) -> CType:
    """An enum type (4 bytes on x86_64 Linux)."""
    return CType(f"enum {name}", 4, 4)


def ARRAY(elem: CType, count: int) -> Tuple[CType, int]:
    """An array member; used as the ``ctype`` of a :class:`Field`."""
    return (elem, count)


#: one field-table entry: offset, element size, element count, signed,
#: KSan label (``struct.field``)
FieldSlot = Tuple[int, int, int, bool, str]


@dataclass(frozen=True)
class Field:
    """One structure member.

    ``ctype`` is a :class:`CType` or an ``ARRAY(...)`` tuple.  Embedded
    sub-structures are expressed with :meth:`CStructDef.as_ctype` — opaque
    blobs from the extractor's point of view, matching how PicoDriver
    treats Linux ``kobject`` and friends.
    """

    name: str
    ctype: Union[CType, Tuple[CType, int]]

    @property
    def elem(self) -> CType:
        return self.ctype[0] if isinstance(self.ctype, tuple) else self.ctype

    @property
    def count(self) -> int:
        return self.ctype[1] if isinstance(self.ctype, tuple) else 1

    @property
    def size(self) -> int:
        return self.elem.size * self.count

    @property
    def align(self) -> int:
        return self.elem.align


class CStructDef:
    """A C structure definition with ABI-correct offsets."""

    def __init__(self, name: str, fields: List[Field]):
        if not fields:
            raise ReproError(f"struct {name} has no fields")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ReproError(f"struct {name} has duplicate field names")
        self.name = name
        self.fields = list(fields)
        self._offsets: Dict[str, int] = {}
        #: the field table the accessors read (see the module docstring)
        self.table: Dict[str, FieldSlot] = {}
        off = 0
        max_align = 1
        for f in self.fields:
            align = f.align
            max_align = max(max_align, align)
            off = -(-off // align) * align
            self._offsets[f.name] = off
            elem = f.elem
            self.table[f.name] = (off, elem.size, f.count, elem.signed,
                                  f"{name}.{f.name}")
            off += f.size
        self.align = max_align
        #: total size including trailing padding
        self.size = -(-off // max_align) * max_align

    def offset_of(self, field: str) -> int:
        """ABI byte offset of a field within the struct."""
        try:
            return self._offsets[field]
        except KeyError:
            raise ReproError(f"struct {self.name} has no field {field!r}")

    def field(self, name: str) -> Field:
        """Look up a field definition by name."""
        for f in self.fields:
            if f.name == name:
                return f
        raise ReproError(f"struct {self.name} has no field {name!r}")

    def as_ctype(self) -> CType:
        """Use this struct as an embedded member of another struct."""
        return CType(f"struct {self.name}", self.size, self.align)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CStructDef {self.name} size={self.size}>"


def _bounds_error(field: str, index: int, count: int) -> ReproError:
    return ReproError(f"index {index} out of bounds for {field}[{count}]")


class _FieldAccess:
    """``get``/``set``/``add`` over a field table.

    A subclass sets ``heap``, ``addr``, ``kernel``, ``_table`` (its
    definition's field table) and ``_defn`` (whose ``field(name)``
    raises the unknown-field error).
    """

    heap: SharedHeap
    addr: int
    kernel: str

    def get(self, field: str, index: int = 0, *,
            atomic: bool = False) -> int:
        """Read a field (array ``index`` optional).  ``atomic=True``
        models ``READ_ONCE``/``atomic_read`` — race-free in the KSan
        model; use for lock-free reads of shared control words."""
        try:
            off, size, count, signed, label = self._table[field]
        except KeyError:
            self._defn.field(field)  # raises the unknown-field error
            raise
        if not 0 <= index < count:
            raise _bounds_error(field, index, count)
        heap = self.heap
        monitor = heap._monitor_view
        if monitor is not None:
            monitor.annotate(self.kernel, label, atomic)
        raw = heap.read_u(self.addr + off + index * size, size)
        if signed and raw >= 1 << (8 * size - 1):
            raw -= 1 << (8 * size)
        return raw

    def set(self, field: str, value: int, index: int = 0, *,
            atomic: bool = False) -> None:
        """Write a field (array ``index`` optional).  ``atomic=True``
        models ``WRITE_ONCE``/``atomic_set`` — race-free in the KSan
        model; use for lock-free writes of shared control words."""
        try:
            off, size, count, _, label = self._table[field]
        except KeyError:
            self._defn.field(field)  # raises the unknown-field error
            raise
        if not 0 <= index < count:
            raise _bounds_error(field, index, count)
        if value < 0:
            value += 1 << (8 * size)
        heap = self.heap
        monitor = heap._monitor_view
        if monitor is not None:
            monitor.annotate(self.kernel, label, atomic)
        heap.write_u(self.addr + off + index * size, size, value)

    def add(self, field: str, delta: int, index: int = 0) -> int:
        """Atomic read-modify-write (``LOCK XADD``): add ``delta`` to the
        field and return the new value.  Atomic accesses are race-free
        against any other access in the KSan model — use for the
        driver's ``atomic_t``-style counters."""
        try:
            off, size, count, _, label = self._table[field]
        except KeyError:
            self._defn.field(field)  # raises the unknown-field error
            raise
        if not 0 <= index < count:
            raise _bounds_error(field, index, count)
        addr = self.addr + off + index * size
        heap = self.heap
        monitor = heap._monitor_view
        if monitor is not None:
            monitor.annotate(self.kernel, label, True)
        raw = (heap.read_u(addr, size) + delta) % (1 << (8 * size))
        monitor = heap._monitor_view
        if monitor is not None:
            monitor.annotate(self.kernel, label, True)
        heap.write_u(addr, size, raw)
        return raw


class StructInstance(_FieldAccess):
    """A live structure in kernel heap memory, accessed through its *own*
    definition — this is the Linux driver's (always correct) view.

    ``kernel`` names the kernel this view belongs to for the race
    detector; the owning Linux driver is the default.
    """

    def __init__(self, defn: CStructDef, heap: SharedHeap,
                 addr: Optional[int] = None, kernel: str = "linux"):
        self.defn = self._defn = defn
        self._table = defn.table
        self.heap = heap
        self.kernel = kernel
        self.addr = heap.kmalloc(defn.size) if addr is None else addr

    def free(self) -> None:
        """Release the backing heap allocation."""
        self.heap.kfree(self.addr)


class StructView(_FieldAccess):
    """LWK-side access to a Linux structure through an extracted layout
    (see :mod:`repro.core.extract` for the extraction workflow).

    Reads and writes go to the same byte-backed heap the Linux driver
    uses — if the layout is stale (built from a different driver version)
    the view silently reads the wrong bytes, which is precisely the
    failure mode the DWARF workflow exists to prevent.  An extracted
    layout's table marks every field unsigned: the view reads the raw
    word, whatever the member's C type.

    ``kernel`` names the kernel *performing* the accesses for the race
    detector; the McKernel fast path is the default, but a completion
    callback running on a Linux CPU should pass ``"linux"``.
    """

    def __init__(self, layout, heap: SharedHeap, addr: int,
                 kernel: str = "mckernel"):
        self.layout = self._defn = layout
        self._table = layout.table
        self.heap = heap
        self.addr = addr
        self.kernel = kernel
