"""pxd driver structure definitions and shipped DWARF debug info.

Same discipline as :mod:`repro.linux.hfi1.debuginfo`: two released
driver versions whose embedded instrumentation blobs differ in size, so
hand-copied headers silently break between releases while DWARF
extraction keeps working (paper section 3.2).

The structures mirror the px-fuse fast path (SNIPPETS.md
``pxd_fastpath.h``): ``pxd_device`` is the per-device root,
``pxd_fastpath_extension`` carries the replica set / congestion /
suspend control words the fast path polls, and ``pxd_io_tracker`` is
the per-IO clone tracker with its atomic ``active``/``fails`` counters.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Mapping

from ...core.dwarf import ModuleBinary, emit_dwarf, once_per_version
from ...core.structs import ARRAY, PTR, U8, U32, U64, CStructDef, Field

CURRENT_VERSION = "1.0.0"
NEXT_VERSION = "1.1.1"

#: per-version size of the miscdevice+list blob heading pxd_device
_DEV_BLOB = {"1.0.0": 96, "1.1.1": 104}
#: per-version size of the spinlock+waitqueue blob heading the
#: fastpath extension (lockdep grows it between releases)
_FP_BLOB = {"1.0.0": 56, "1.1.1": 64}
#: per-version size of the bio+list blob heading pxd_io_tracker
_TRK_BLOB = {"1.0.0": 48, "1.1.1": 56}


@once_per_version
def struct_defs(version: str = CURRENT_VERSION) -> Mapping[str, CStructDef]:
    """The driver's internal structure definitions for ``version``.

    Built once per version and shared: the mapping is read-only."""
    if version not in _DEV_BLOB:
        raise ValueError(f"unknown pxd driver version {version!r}")

    pxd_device = CStructDef("pxd_device", [
        Field("misc_blob", ARRAY(U8, _DEV_BLOB[version])),
        Field("dev_id", U64),
        Field("size", U64),                  # device capacity in bytes
        Field("major", U32),
        Field("minor", U32),
        Field("qdepth", U32),
        Field("nfd", U32),                   # backing replica count
        Field("fastpath", PTR),              # -> pxd_fastpath_extension
        Field("strong_flush", U32),
        Field("mode", U32),
    ])

    pxd_fastpath_extension = CStructDef("pxd_fastpath_extension", [
        Field("lock_blob", ARRAY(U8, _FP_BLOB[version])),
        Field("nfd", U32),
        Field("inservice_mask", U32),        # bit i: replica i serves IO
        Field("suspend", U32),               # forced slow-path bit
        Field("congested", U32),
        Field("nr_congestion_on", U32),
        Field("nr_congestion_off", U32),
        Field("wr_seq", U64),                # monotone write sequence
        Field("active_failover", U32),
        Field("fail_cnt", U32),
    ])

    pxd_io_tracker = CStructDef("pxd_io_tracker", [
        Field("bio_blob", ARRAY(U8, _TRK_BLOB[version])),
        Field("orig_sector", U64),
        Field("nsectors", U32),
        Field("active", U32),                # atomic: replicas in flight
        Field("fails", U32),                 # atomic: replica failures
        Field("status", U32),
        Field("file", PTR),
    ])

    return MappingProxyType({s.name: s for s in (
        pxd_device, pxd_fastpath_extension, pxd_io_tracker)})


@once_per_version
def build_module(version: str = CURRENT_VERSION) -> ModuleBinary:
    """'Compile' the driver: emit the module binary with DWARF headers."""
    defs: List[CStructDef] = list(struct_defs(version).values())
    return emit_dwarf(defs, producer="gcc (GCC) 7.3.1",
                      module="pxd", version=version)
