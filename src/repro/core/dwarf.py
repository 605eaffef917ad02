"""A miniature DWARF debugging-information model.

The real PicoDriver workflow inspects the DWARF headers of Intel's shipped
``hfi1.ko`` to recover structure layouts (paper section 3.2).  Here the
simulated driver build does the same thing: :func:`emit_dwarf` compiles the
driver's :class:`~repro.core.structs.CStructDef` definitions into a tree of
debugging-information entries (DIEs) with the tags and attributes the real
tool walks — ``DW_TAG_structure_type``, ``DW_TAG_member``,
``DW_AT_data_member_location``, ``DW_AT_type`` — and packages them into a
:class:`ModuleBinary`.

Crucially, the extractor (:mod:`repro.core.extract`) consumes *only* this
DWARF tree, never the Python-level struct definitions, so layout drift
between driver versions is discovered the same way the real tool discovers
it.

A release's debug information is a static artifact: it changes only
between releases.  Each driver's ``struct_defs`` and ``build_module``
are therefore wrapped in :func:`once_per_version`, so a process builds
each version's definitions and binary once and every driver instance
of that version, on every node of every machine, shares them
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from inspect import signature
from typing import Callable, Dict, Iterator, List, Tuple, TypeVar

from ..errors import DwarfError
from .structs import CStructDef, CType

# DWARF tag and attribute names (subset used by dwarf-extract-struct).
DW_TAG_compile_unit = "DW_TAG_compile_unit"
DW_TAG_structure_type = "DW_TAG_structure_type"
DW_TAG_member = "DW_TAG_member"
DW_TAG_base_type = "DW_TAG_base_type"
DW_TAG_pointer_type = "DW_TAG_pointer_type"
DW_TAG_enumeration_type = "DW_TAG_enumeration_type"
DW_TAG_array_type = "DW_TAG_array_type"
DW_TAG_subrange_type = "DW_TAG_subrange_type"

DW_AT_name = "DW_AT_name"
DW_AT_byte_size = "DW_AT_byte_size"
DW_AT_data_member_location = "DW_AT_data_member_location"
DW_AT_type = "DW_AT_type"
DW_AT_upper_bound = "DW_AT_upper_bound"
DW_AT_producer = "DW_AT_producer"


@dataclass
class DwarfDie:
    """One debugging-information entry: a tag, attributes and children.

    ``DW_AT_type`` attributes hold a *reference* (integer offset) to another
    DIE, as in real DWARF; :meth:`DwarfInfo.resolve` follows them.
    """

    tag: str
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["DwarfDie"] = field(default_factory=list)
    offset: int = 0  # assigned when attached to a DwarfInfo

    def at(self, name: str) -> object:
        """Read a required attribute (DwarfError if absent)."""
        try:
            return self.attrs[name]
        except KeyError:
            raise DwarfError(f"{self.tag} at {self.offset:#x} lacks {name}")


class DwarfInfo:
    """The .debug_info section of a module binary: a forest of DIEs."""

    def __init__(self) -> None:
        self.units: List[DwarfDie] = []
        self._by_offset: Dict[int, DwarfDie] = {}
        self._next_offset = 0x0B  # arbitrary non-zero start, like real DWARF

    def add_unit(self, unit: DwarfDie) -> None:
        """Attach a compile unit, assigning DIE offsets."""
        self._index(unit)
        self.units.append(unit)

    def _index(self, die: DwarfDie) -> None:
        die.offset = self._next_offset
        self._next_offset += 1 + 2 * len(die.attrs)
        self._by_offset[die.offset] = die
        for child in die.children:
            self._index(child)

    def resolve(self, ref: int) -> DwarfDie:
        """Follow a DW_AT_type reference to its DIE."""
        try:
            return self._by_offset[ref]
        except KeyError:
            raise DwarfError(f"dangling DW_AT_type reference {ref:#x}")

    def walk(self) -> Iterator[DwarfDie]:
        """Depth-first iteration over every DIE (the tool 'systematically
        walks the DWARF headers', section 3.2)."""
        stack = list(reversed(self.units))
        while stack:
            die = stack.pop()
            yield die
            stack.extend(reversed(die.children))


@dataclass(frozen=True)
class ModuleBinary:
    """A built kernel module as shipped: name, version string and its
    embedded debug information.  The runtime struct definitions stay
    *private* to the driver; consumers get DWARF only.

    One binary per driver version is shared by every driver instance
    (:func:`once_per_version`), so nothing may modify it."""

    name: str
    version: str
    dwarf: DwarfInfo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleBinary {self.name} v{self.version}>"


T = TypeVar("T")


def once_per_version(build: Callable[[str], T]) -> Callable[..., T]:
    """Build a driver release's static artifact once per process.

    ``build(version=DEFAULT)`` makes the artifact of one release (its
    struct definitions or its module binary).  The wrapper returns the
    one object built for a version, however the version is given:
    ``f()``, ``f(DEFAULT)`` and ``f(version=DEFAULT)`` are the same
    call.  A build that raises (an unknown version) caches nothing.
    """
    default = signature(build).parameters["version"].default
    built: Dict[str, T] = {}

    @wraps(build)
    def shared(version: str = default) -> T:
        try:
            return built[version]
        except KeyError:
            artifact = built[version] = build(version)
            return artifact

    return shared


def emit_dwarf(structs: List[CStructDef], producer: str = "simcc 1.0",
               module: str = "hfi1", version: str = "0") -> ModuleBinary:
    """Compile struct definitions into a module binary with DWARF info."""
    info = DwarfInfo()
    unit = DwarfDie(DW_TAG_compile_unit, {DW_AT_name: f"{module}.c",
                                          DW_AT_producer: producer})
    # First pass so DW_AT_type can reference embedded struct DIEs by name.
    type_dies: Dict[str, DwarfDie] = {}

    def type_die_for(ctype: CType) -> DwarfDie:
        key = ctype.name
        if key in type_dies:
            return type_dies[key]
        if ctype.name == "void *":
            die = DwarfDie(DW_TAG_pointer_type, {DW_AT_byte_size: ctype.size})
        elif ctype.name.startswith("enum "):
            die = DwarfDie(DW_TAG_enumeration_type,
                           {DW_AT_name: ctype.name[5:],
                            DW_AT_byte_size: ctype.size})
        elif ctype.name.startswith("struct "):
            # opaque embedded structure (e.g. kobject): size only
            die = DwarfDie(DW_TAG_structure_type,
                           {DW_AT_name: ctype.name[7:],
                            DW_AT_byte_size: ctype.size})
        else:
            die = DwarfDie(DW_TAG_base_type, {DW_AT_name: ctype.name,
                                              DW_AT_byte_size: ctype.size})
        type_dies[key] = die
        unit.children.append(die)
        return die

    # Array types are interned like element types: two fields of type
    # u64[16] share one DW_TAG_array_type DIE (as real compilers emit),
    # instead of minting a fresh DIE + subrange per field.
    array_dies: Dict[Tuple[str, int], DwarfDie] = {}

    def array_die_for(elem: CType, count: int) -> DwarfDie:
        key = (elem.name, count)
        if key in array_dies:
            return array_dies[key]
        arr = DwarfDie(DW_TAG_array_type, {DW_AT_type: type_die_for(elem)},
                       children=[DwarfDie(DW_TAG_subrange_type,
                                          {DW_AT_upper_bound: count - 1})])
        array_dies[key] = arr
        unit.children.append(arr)
        return arr

    for sdef in structs:
        sdie = DwarfDie(DW_TAG_structure_type,
                        {DW_AT_name: sdef.name, DW_AT_byte_size: sdef.size})
        for f in sdef.fields:
            elem_die = type_die_for(f.elem)
            if f.count > 1:
                tdie = array_die_for(f.elem, f.count)
            else:
                tdie = elem_die
            sdie.children.append(DwarfDie(
                DW_TAG_member,
                {DW_AT_name: f.name,
                 DW_AT_data_member_location: sdef.offset_of(f.name),
                 DW_AT_type: tdie}))
        unit.children.append(sdie)

    # Convert DIE-object references to integer offsets (real DWARF form).
    info.add_unit(unit)
    for die in info.walk():
        ref = die.attrs.get(DW_AT_type)
        if isinstance(ref, DwarfDie):
            die.attrs[DW_AT_type] = ref.offset
    return ModuleBinary(name=module, version=version, dwarf=info)
