"""``dwarf-extract-struct``: generate partial structure layouts from DWARF.

Reimplements the workflow of the tool the authors published
(http://cgit.notk.org/asmadeus/dwarf-extract-struct.git): walk the DWARF
headers until the requested ``DW_TAG_structure_type`` is found, then for
each requested field locate its ``DW_TAG_member``, read the offset from
``DW_AT_data_member_location`` and the type through ``DW_AT_type``
(arrays supply element counts via ``DW_AT_upper_bound``).

Two artifacts come out:

* an :class:`ExtractedLayout` — the machine-usable offsets the LWK-side
  :class:`StructView` uses to access Linux driver memory, and
* :func:`generate_header` — the C header text with an unnamed union of
  independently padded members, exactly the shape of the paper's Listing 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import DwarfError, ReproError
from . import dwarf as D
from .dwarf import DwarfDie, DwarfInfo, ModuleBinary
# StructView historically lived here; it is a blessed heap accessor now
# hosted with its sibling StructInstance (lint rule PD005), re-exported
# for compatibility.
from .structs import StructView

__all__ = ["ExtractedField", "ExtractedLayout", "StructView",
           "dwarf_extract_struct", "generate_header"]


@dataclass(frozen=True)
class ExtractedField:
    """One extracted member: offset, element size/count, C type name."""

    name: str
    offset: int
    elem_size: int
    count: int
    type_name: str

    @property
    def size(self) -> int:
        return self.elem_size * self.count


@dataclass(frozen=True)
class ExtractedLayout:
    """A partial view of a structure: total size + requested members."""

    struct_name: str
    byte_size: int
    fields: Tuple[ExtractedField, ...]
    source_module: str = ""
    source_version: str = ""

    def __post_init__(self) -> None:
        # the field table StructView reads (repro.core.structs): every
        # field unsigned, as the LWK view reads raw words
        object.__setattr__(self, "table", {
            f.name: (f.offset, f.elem_size, f.count, False,
                     f"{self.struct_name}.{f.name}")
            for f in self.fields})

    def field(self, name: str) -> ExtractedField:
        """Look up one extracted member by name."""
        for f in self.fields:
            if f.name == name:
                return f
        raise ReproError(f"extracted layout of {self.struct_name} "
                         f"has no field {name!r}")


def _resolve_type(info: DwarfInfo, die: DwarfDie) -> Tuple[int, int, str]:
    """Follow DW_AT_type; return (elem_size, count, type_name)."""
    if die.tag == D.DW_TAG_array_type:
        elem = info.resolve(die.at(D.DW_AT_type))  # type: ignore[arg-type]
        if not die.children or die.children[0].tag != D.DW_TAG_subrange_type:
            raise DwarfError("array type without subrange child")
        count = int(die.children[0].at(D.DW_AT_upper_bound)) + 1  # type: ignore[arg-type]
        size, _, name = _resolve_type(info, elem)
        return size, count, name
    if die.tag == D.DW_TAG_pointer_type:
        return int(die.at(D.DW_AT_byte_size)), 1, "void *"  # type: ignore[arg-type]
    if die.tag == D.DW_TAG_enumeration_type:
        return (int(die.at(D.DW_AT_byte_size)), 1,  # type: ignore[arg-type]
                f"enum {die.at(D.DW_AT_name)}")
    if die.tag == D.DW_TAG_structure_type:
        return (int(die.at(D.DW_AT_byte_size)), 1,  # type: ignore[arg-type]
                f"struct {die.at(D.DW_AT_name)}")
    if die.tag == D.DW_TAG_base_type:
        return (int(die.at(D.DW_AT_byte_size)), 1,  # type: ignore[arg-type]
                str(die.at(D.DW_AT_name)))
    raise DwarfError(f"unsupported type DIE {die.tag}")


def dwarf_extract_struct(binary: ModuleBinary, struct_name: str,
                         field_names: List[str]) -> ExtractedLayout:
    """Extract ``field_names`` of ``struct_name`` from a module binary."""
    info = binary.dwarf
    target: Optional[DwarfDie] = None
    for die in info.walk():
        if (die.tag == D.DW_TAG_structure_type
                and die.attrs.get(D.DW_AT_name) == struct_name
                and die.children):  # skip opaque embedded declarations
            target = die
            break
    if target is None:
        raise DwarfError(
            f"struct {struct_name!r} not found in DWARF of "
            f"{binary.name} v{binary.version}")
    members: Dict[str, DwarfDie] = {
        str(child.attrs.get(D.DW_AT_name)): child
        for child in target.children if child.tag == D.DW_TAG_member}
    extracted = []
    for fname in field_names:
        if fname not in members:
            raise DwarfError(f"struct {struct_name} has no member {fname!r} "
                             f"in {binary.name} v{binary.version}")
        mdie = members[fname]
        offset = int(mdie.at(D.DW_AT_data_member_location))  # type: ignore[arg-type]
        tdie = info.resolve(mdie.at(D.DW_AT_type))  # type: ignore[arg-type]
        elem_size, count, type_name = _resolve_type(info, tdie)
        extracted.append(ExtractedField(fname, offset, elem_size, count,
                                        type_name))
    return ExtractedLayout(
        struct_name=struct_name,
        byte_size=int(target.at(D.DW_AT_byte_size)),  # type: ignore[arg-type]
        fields=tuple(extracted),
        source_module=binary.name,
        source_version=binary.version,
    )


def generate_header(layout: ExtractedLayout) -> str:
    """Render the layout as the generated C header of Listing 1: an unnamed
    union with a whole-struct character array and one padded entry per
    requested member."""
    lines = [f"struct {layout.struct_name} {{", "\tunion {",
             f"\t\tchar whole_struct[{layout.byte_size}];"]
    for i, f in enumerate(layout.fields):
        lines.append("\t\tstruct {")
        if f.offset:
            lines.append(f"\t\t\tchar padding{i}[{f.offset}];")
        decl = f"{f.type_name} {f.name}"
        if f.count > 1:
            decl += f"[{f.count}]"
        lines.append(f"\t\t\t{decl};")
        lines.append("\t\t};")
    lines += ["\t};", "};"]
    return "\n".join(lines)


