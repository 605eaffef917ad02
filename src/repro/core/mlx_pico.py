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

from ..errors import DriverError
from ..linux.mlx import verbs
from ..linux.mlx.driver import MTT_PROGRAM_COST, MemoryRegion
from ..units import USEC
from .picodriver import PicoDriver
from .structs import StructInstance

#: fast-path fixed costs (no gup, no key-table locking contention)
REG_MR_BASE_PICO = 0.55 * USEC
DEREG_MR_BASE_PICO = 0.40 * USEC


class MlxMemRegPicoDriver(PicoDriver):
    """LWK-resident fast path for ``reg_mr``/``dereg_mr``."""

    EXTRACTION_MANIFEST = {
        "mlx5_ib_dev": ["mtt_entries_used", "mtt_entries_max"],
        "mlx5_ib_mr": ["lkey", "rkey", "iova", "length", "npages",
                       "mtt_base"],
    }
    #: REG_MR/DEREG_MR; the other verbs commands stay in Linux
    CLAIMS = {"ioctl": verbs.MEMREG_COMMANDS}

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
        if length <= 0:
            # refused before anything is allocated, as the slow path does
            raise DriverError(f"reg_mr of non-positive length {length}")
        if not task.pagetable.is_pinned(vaddr, length):
            raise DriverError(
                f"pico reg_mr over unpinned range {vaddr:#x}+{length:#x}")
        _path, file = lwk.device_file(task, fd)
        state = self.linux_driver.file_state(file)
        spans = task.pagetable.phys_spans(vaddr, length)
        # one MTT entry per contiguous span — the whole point of the port
        entries = len(spans)
        # faults here if the address space is not unified
        self._view("mlx5_ib_dev", self.linux_driver.devdata.addr)
        self.linux_driver.take_mtt(entries)
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
        yield from lwk.sim.delay(REG_MR_BASE_PICO
                                 + len(spans) * sc.ptwalk_per_span
                                 + entries * MTT_PROGRAM_COST)
        lwk.tracer.count("pico.mlx_reg_mr")
        lwk.tracer.record("pico.mtt_entries_per_mr", entries)
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
        yield from lwk.sim.delay(DEREG_MR_BASE_PICO
                                 + entries * MTT_PROGRAM_COST / 2)
        return 0
