"""mlx5 driver structures and shipped DWARF (versioned, like hfi1)."""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from ...core.dwarf import ModuleBinary, emit_dwarf, once_per_version
from ...core.structs import ARRAY, PTR, U8, U16, U32, U64, CStructDef, Field

CURRENT_VERSION = "4.3-1.0.1"
NEXT_VERSION = "4.4-2.0.7"

#: per-version size of the ib_device embedded blob at the head of
#: mlx5_ib_dev (changes between OFED releases)
_DEV_BLOB = {"4.3-1.0.1": 96, "4.4-2.0.7": 112}
#: per-version size of the ib_mr blob at the head of mlx5_ib_mr
_MR_BLOB = {"4.3-1.0.1": 48, "4.4-2.0.7": 56}


@once_per_version
def struct_defs(version: str = CURRENT_VERSION) -> Mapping[str, CStructDef]:
    """The mlx5 driver's structure definitions for ``version``.

    Built once per version and shared: the mapping is read-only."""
    if version not in _DEV_BLOB:
        raise ValueError(f"unknown mlx5 driver version {version!r}")
    mlx5_ib_dev = CStructDef("mlx5_ib_dev", [
        Field("ibdev", ARRAY(U8, _DEV_BLOB[version])),
        Field("fw_ver", U64),
        Field("mtt_entries_used", U32),
        Field("mtt_entries_max", U32),
        Field("num_ports", U16),
        Field("pad", U16),
        Field("mr_table", PTR),
    ])
    mlx5_ib_mr = CStructDef("mlx5_ib_mr", [
        Field("ibmr", ARRAY(U8, _MR_BLOB[version])),
        Field("lkey", U32),
        Field("rkey", U32),
        Field("iova", U64),
        Field("length", U64),
        Field("npages", U32),
        Field("access_flags", U32),
        Field("mtt_base", U64),
    ])
    return MappingProxyType({s.name: s for s in (mlx5_ib_dev, mlx5_ib_mr)})


@once_per_version
def build_module(version: str = CURRENT_VERSION) -> ModuleBinary:
    """'Compile' mlx5_ib.ko: module binary with DWARF headers."""
    return emit_dwarf(list(struct_defs(version).values()),
                      producer="gcc (OFED) 4.8.5", module="mlx5_ib",
                      version=version)
