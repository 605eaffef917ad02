"""The Mellanox InfiniBand memory-registration PicoDriver.

This is the paper's stated next step ("we intend to further extend this
work by porting memory registration routines from the Mellanox
Infiniband driver", section 6), built on exactly the same framework
contract as the HFI port:

* address spaces must be unified before attach;
* structure layouts come from DWARF extraction of the loaded
  ``mlx5_ib`` module, verified against its version;
* the fast path claims only the two memory-registration verbs commands
  (of nine); everything else — PDs, CQs, QPs, queries — stays on the
  offloaded slow path through the unmodified driver;
* McKernel's pinned, physically contiguous memory lets the fast path
  program one MTT entry per *span* instead of one per 4KB page.
"""

from __future__ import annotations

from typing import Dict

from ..errors import DriverError
from ..linux.mlx import verbs
from ..linux.mlx.driver import (MTT_PROGRAM_COST, MemoryRegion,
                                MlxDriver)
from ..units import USEC
from .extract import ExtractedLayout, dwarf_extract_struct
from .picodriver import FastPathDecision, PicoDriver
from .structs import StructInstance, StructView

#: fast-path fixed costs (no gup, no key-table locking contention)
REG_MR_BASE_PICO = 0.55 * USEC
DEREG_MR_BASE_PICO = 0.40 * USEC

EXTRACTION_MANIFEST = {
    "mlx5_ib_dev": ["mtt_entries_used", "mtt_entries_max"],
    "mlx5_ib_mr": ["lkey", "rkey", "iova", "length", "npages", "mtt_base"],
}


class MlxMemRegPicoDriver(PicoDriver):
    """LWK-resident fast path for ``reg_mr``/``dereg_mr``."""

    def __init__(self, linux_driver: MlxDriver):
        self.linux_driver = linux_driver
        self.device_path = linux_driver.device_path
        self.module = linux_driver.binary
        self.layouts: Dict[str, ExtractedLayout] = {}
        self.lwk = None
        self.heap = None

    def attach(self, lwk) -> None:
        """Verify unification and extract mlx5 layouts from DWARF."""
        self.require_unified(lwk.linux.aspace, lwk.aspace)
        self.lwk = lwk
        self.heap = lwk.node.kheap
        for struct, fields in EXTRACTION_MANIFEST.items():
            layout = dwarf_extract_struct(self.module, struct, fields)
            self.require_layout_version(layout, self.linux_driver.version)
            self.layouts[struct] = layout

    def claims(self, syscall: str, args: tuple) -> FastPathDecision:
        """Claim REG_MR/DEREG_MR; offload the other verbs commands."""
        if syscall == "ioctl" and args[1] in verbs.MEMREG_COMMANDS:
            return FastPathDecision.claim("memory registration fast path")
        return FastPathDecision.offload(
            f"{syscall} stays in the Linux verbs stack")

    # -- views ---------------------------------------------------------------

    def _dev_view(self) -> StructView:
        addr = self.linux_driver.devdata.addr
        self.lwk.aspace.check_access(addr, "mlx5_ib_dev")
        return StructView(self.layouts["mlx5_ib_dev"], self.heap, addr)

    # -- fast paths -------------------------------------------------------------

    def fast_ioctl(self, task, fd: int, cmd: int, arg):
        """Generator: LWK-local memory (de)registration."""
        if cmd == verbs.MLX_CMD_REG_MR:
            return (yield from self._reg_mr(task, fd, arg))
        if cmd == verbs.MLX_CMD_DEREG_MR:
            return (yield from self._dereg_mr(task, fd, arg))
        raise DriverError(f"mlx pico does not claim {cmd:#x}")

    def _reg_mr(self, task, fd: int, arg):
        lwk = self.lwk
        sc = lwk.params.syscall
        vaddr, length = arg["vaddr"], arg["length"]
        if not task.pagetable.is_pinned(vaddr, length):
            raise DriverError(
                f"pico reg_mr over unpinned range {vaddr:#x}+{length:#x}")
        _path, file = lwk.device_file(task, fd)
        state = self.linux_driver.file_state(file)
        spans = task.pagetable.phys_spans(vaddr, length)
        # one MTT entry per contiguous span — the whole point of the port
        entries = len(spans)
        self._dev_view()  # faults here if the address space is not unified
        guard = self.linux_driver.guard
        try:
            self.linux_driver.take_mtt(entries)
        except DriverError as exc:
            if guard is not None:
                # resource exhaustion is path health, not a caller bug:
                # feed the memreg breaker so dispatch routes around it
                guard.record_failure(guard.path_name(0),
                                     f"reg_mr: {exc}")
            raise
        mr = StructInstance(self.linux_driver._defs["mlx5_ib_mr"], self.heap)
        lkey = self.linux_driver.alloc_key()
        mr.set("lkey", lkey)
        mr.set("rkey", lkey + 1)
        mr.set("iova", vaddr)
        mr.set("length", length)
        # benign by construction: the MR lifecycle serializes reg_mr
        # before dereg_mr for each key, and the mckernel-side read is
        # an attribution artifact of the linux-bound StructInstance
        mr.set("npages", entries)  # pd-ignore[PD015.5]
        mr.set("mtt_base", spans[0][0])
        state.regions[lkey] = MemoryRegion(mr=mr, owner=task.name,
                                           spans=tuple(spans))
        yield lwk.sim.timeout(REG_MR_BASE_PICO
                              + len(spans) * sc.ptwalk_per_span
                              + entries * MTT_PROGRAM_COST)
        lwk.tracer.count("pico.mlx_reg_mr")
        lwk.tracer.record("pico.mtt_entries_per_mr", entries)
        if guard is not None:
            guard.record_success(guard.path_name(0))
        return {"lkey": lkey, "rkey": lkey + 1}

    def _dereg_mr(self, task, fd: int, arg):
        lwk = self.lwk
        _path, file = lwk.device_file(task, fd)
        state = self.linux_driver.file_state(file)
        lkey = arg["lkey"]
        region = state.regions.pop(lkey, None)
        if region is None:
            raise DriverError(f"pico dereg_mr of unknown lkey {lkey:#x}")
        entries = region.mr.get("npages")
        self.linux_driver.put_mtt(entries)
        region.mr.free()
        yield lwk.sim.timeout(DEREG_MR_BASE_PICO
                              + entries * MTT_PROGRAM_COST / 2)
        guard = self.linux_driver.guard
        if guard is not None:
            guard.record_success(guard.path_name(0))
        return 0
