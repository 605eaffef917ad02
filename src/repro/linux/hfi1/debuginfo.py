"""HFI1 driver structure definitions and shipped DWARF debug info.

Two released driver versions are modeled.  Between them, lock/debug
instrumentation blobs embedded at the head of several structures change
size — the kind of silent layout drift that breaks hand-copied headers but
is handled "on the order of hours" with DWARF extraction (section 3.2).

Version ``1.0.0`` reproduces the exact ``sdma_state`` layout of the
paper's Listing 1: 64 bytes total, ``current_state`` at offset 40,
``go_s99_running`` at 48, ``previous_state`` at 52.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Mapping

from ...core.dwarf import ModuleBinary, emit_dwarf, once_per_version
from ...core.structs import ARRAY, ENUM, PTR, U8, U16, U32, U64, CStructDef, Field

#: enum sdma_states values (subset)
SDMA_STATE_S00_HW_DOWN = 0
SDMA_STATE_S10_HW_START_UP_HALT_WAIT = 1
SDMA_STATE_S80_HW_FREEZE = 8
SDMA_STATE_S99_RUNNING = 9

#: user_sdma_pkt_q states
SDMA_PKT_Q_ACTIVE = 1
SDMA_PKT_Q_FROZEN = 2

CURRENT_VERSION = "1.0.0"
NEXT_VERSION = "1.1.1"

#: per-version size of the embedded spinlock+list blob at the head of
#: sdma_state (lockdep changes it between releases)
_SS_BLOB = {"1.0.0": 40, "1.1.1": 48}
#: per-version size of the kobject blob at the head of hfi1_filedata
_KOBJ_BLOB = {"1.0.0": 64, "1.1.1": 72}
#: per-version size of the pci/device blob at the head of hfi1_devdata
_DEV_BLOB = {"1.0.0": 128, "1.1.1": 144}


@once_per_version
def struct_defs(version: str = CURRENT_VERSION) -> Mapping[str, CStructDef]:
    """The driver's internal structure definitions for ``version``.

    Built once per version and shared: the mapping is read-only."""
    if version not in _SS_BLOB:
        raise ValueError(f"unknown hfi1 driver version {version!r}")
    ss_blob = _SS_BLOB[version]
    kobj = _KOBJ_BLOB[version]
    dev_blob = _DEV_BLOB[version]

    sdma_state = CStructDef("sdma_state", [
        # spinlock + completion + list_head instrumentation blob
        Field("ss_blob", ARRAY(U8, ss_blob - 8)),
        Field("sdma_head_dma", PTR),
        Field("current_state", ENUM("sdma_states")),
        Field("current_op", U32),
        Field("go_s99_running", U32),
        Field("previous_state", ENUM("sdma_states")),
        Field("previous_op", U32),
        Field("last_event", U32),
    ])

    hfi1_filedata = CStructDef("hfi1_filedata", [
        Field("kobj", ARRAY(U8, kobj)),      # struct kobject
        Field("dd", PTR),                    # -> hfi1_devdata
        Field("ctxt", U16),
        Field("subctxt", U16),
        Field("rec_cpu_num", U32),
        Field("pq", PTR),                    # -> user_sdma_pkt_q
        Field("cq", PTR),                    # -> completion queue
        Field("tid_used", U32),
        Field("tid_limit", U32),
        Field("invalid_tid_idx", U32),
        Field("uctxt", PTR),                 # -> hfi1_ctxtdata
    ])

    hfi1_devdata = CStructDef("hfi1_devdata", [
        Field("pcidev_blob", ARRAY(U8, dev_blob)),
        Field("base_guid", U64),
        Field("flags", U64),
        Field("num_sdma", U32),
        Field("num_rcv_contexts", U32),
        Field("chip_rcv_array_count", U32),
        Field("freezelen", U32),
        Field("per_sdma", PTR),              # -> sdma_engine array
        Field("rcvarray_wc", PTR),
        Field("kregbase", PTR),
    ])

    user_sdma_pkt_q = CStructDef("user_sdma_pkt_q", [
        Field("busy_blob", ARRAY(U8, ss_blob // 2)),  # wait queue blob
        Field("ctxt", U16),
        Field("subctxt", U16),
        Field("n_reqs", U32),
        Field("state", U32),
        Field("n_max_reqs", U32),
        Field("dd", PTR),
    ])

    return MappingProxyType({s.name: s for s in (
        sdma_state, hfi1_filedata, hfi1_devdata, user_sdma_pkt_q)})


@once_per_version
def build_module(version: str = CURRENT_VERSION) -> ModuleBinary:
    """'Compile' the driver: emit the module binary with DWARF headers."""
    defs: List[CStructDef] = list(struct_defs(version).values())
    return emit_dwarf(defs, producer="icc (Intel) 17.0.4",
                      module="hfi1", version=version)
