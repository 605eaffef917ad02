"""The mlx5 uverbs driver: memory registration through the VFS.

``REG_MR`` is the expensive path: ``get_user_pages()`` over the region,
then one MTT (memory translation table) entry programmed per base page.
Contiguity is invisible to the unmodified driver, exactly as in hfi1's
TID path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ...core.structs import StructInstance
from ...errors import BadSyscall, DriverError
from ...units import USEC
from ..vfs import File, FileOps
from . import verbs
from .debuginfo import CURRENT_VERSION, build_module, struct_defs

#: MTT entry write (device command interface is slower than MMIO)
MTT_PROGRAM_COST = 110e-9
#: fixed reg_mr handler cost (key allocation, MR bookkeeping)
REG_MR_BASE = 1.8 * USEC
DEREG_MR_BASE = 1.1 * USEC
_ADMIN_COST = 0.9 * USEC


@dataclass
class MemoryRegion:
    """Driver-side record of one registered MR."""

    mr: StructInstance
    owner: str
    spans: tuple = ()


@dataclass
class MlxFileState:
    """Per-open ucontext."""

    regions: Dict[int, MemoryRegion] = field(default_factory=dict)


class MlxDriver(FileOps):
    """``mlx5_ib.ko`` + ``ib_uverbs``: registered as /dev/infiniband/uverbs<n>."""

    def __init__(self, version: str = CURRENT_VERSION, unit: int = 0):
        self.version = version
        self.unit = unit
        self.device_path = f"/dev/infiniband/uverbs{unit}"
        self.binary = build_module(version)
        self._defs = struct_defs(version)
        self.kernel = None
        self.heap = None
        self.devdata: Optional[StructInstance] = None
        self._files: Dict[int, MlxFileState] = {}
        self._next_key = 0x1000
        #: the guard handle the McKernel dispatcher reads; no guard
        #: plane is installed on the memory-registration path
        self.guard = None

    # -- module load -------------------------------------------------------

    def probe(self, kernel) -> None:
        """Module init: device data, sysfs, chrdev registration."""
        self.kernel = kernel
        self.heap = kernel.node.kheap
        self.devdata = StructInstance(self._defs["mlx5_ib_dev"], self.heap)
        self.devdata.set("fw_ver", 0x10_0020_0300)
        self.devdata.set("mtt_entries_max", 1 << 20)
        self.devdata.set("num_ports", 1)
        kernel.vfs.register_chrdev(self.device_path, self)
        from ..device_model import Device
        self.device = Device(f"mlx5_{self.unit}", "infiniband")
        self.device.add_attr("fw_ver", lambda: hex(self.devdata.get("fw_ver")))
        self.device.add_attr("hca_type", "MT4115")
        self.device.add_attr("mtt_used",
                             lambda: self.devdata.get("mtt_entries_used"))
        kernel.devices.register(self.device)

    def file_state(self, file: File) -> MlxFileState:
        """Per-open ucontext for a file (via private_data)."""
        state = self._files.get(file.private_data)
        if state is None:
            raise DriverError(f"{self.device_path}: stale private_data")
        return state

    @property
    def mtt_entries_used(self) -> int:
        return self.devdata.get("mtt_entries_used")

    def take_mtt(self, entries: int) -> None:
        """Reserve MTT entries (DriverError when exhausted)."""
        used = self.devdata.get("mtt_entries_used")
        if used + entries > self.devdata.get("mtt_entries_max"):
            raise DriverError("MTT exhausted")
        self.devdata.set("mtt_entries_used", used + entries)

    def put_mtt(self, entries: int) -> None:
        """Return MTT entries to the pool."""
        self.devdata.set("mtt_entries_used",
                         self.devdata.get("mtt_entries_used") - entries)

    def alloc_key(self) -> int:
        """Allocate a fresh lkey (rkey = lkey + 1)."""
        self._next_key += 0x100
        return self._next_key

    # -- file operations -------------------------------------------------------

    def open(self, kernel, file: File, task):
        """Generator: allocate the per-open ucontext."""
        yield from kernel.sim.delay(2.0 * USEC)
        token = id(file)
        file.private_data = token
        self._files[token] = MlxFileState()

    def release(self, kernel, file: File, task):
        """Generator: free the ucontext and any leaked MRs."""
        state = self._files.pop(file.private_data, None)
        if state is None:
            return
        yield from kernel.sim.delay(1.0 * USEC)
        for lkey in list(state.regions):
            region = state.regions.pop(lkey)
            self.put_mtt(region.mr.get("npages"))
            region.mr.free()

    def ioctl(self, kernel, file: File, task, cmd, arg):
        """Generator: dispatch the uverbs command surface."""
        state = self.file_state(file)
        if cmd == verbs.MLX_CMD_REG_MR:
            return (yield from self._reg_mr(kernel, state, task, arg))
        if cmd == verbs.MLX_CMD_DEREG_MR:
            return (yield from self._dereg_mr(kernel, state, arg))
        if cmd == verbs.MLX_CMD_QUERY_DEVICE:
            yield from kernel.sim.delay(_ADMIN_COST)
            return {"fw_ver": self.devdata.get("fw_ver"),
                    "max_mr_size": 1 << 40}
        if cmd in verbs.ALL_VERB_COMMANDS:
            yield from kernel.sim.delay(_ADMIN_COST)
            return 0
        raise BadSyscall(f"mlx5: unknown verbs command {cmd:#x}")

    # -- memory registration -------------------------------------------------------

    def _reg_mr(self, kernel, state: MlxFileState, task, arg):
        vaddr, length = arg["vaddr"], arg["length"]
        if length <= 0:
            raise DriverError(f"reg_mr of non-positive length {length}")
        pages, gup_cost = kernel.mm.get_user_pages(task, vaddr, length)
        # one MTT entry per base page: the unmodified driver ignores
        # physical contiguity
        entries = len(pages)
        self.take_mtt(entries)
        mr = StructInstance(self._defs["mlx5_ib_mr"], self.heap)
        lkey = self.alloc_key()
        mr.set("lkey", lkey)
        mr.set("rkey", lkey + 1)
        mr.set("iova", vaddr)
        mr.set("length", length)
        mr.set("npages", entries)
        mr.set("mtt_base", pages[0])
        state.regions[lkey] = MemoryRegion(mr=mr, owner=task.name)
        yield from kernel.sim.delay(REG_MR_BASE + gup_cost
                                    + entries * MTT_PROGRAM_COST)
        return {"lkey": lkey, "rkey": lkey + 1}

    def _dereg_mr(self, kernel, state: MlxFileState, arg):
        lkey = arg["lkey"]
        region = state.regions.pop(lkey, None)
        if region is None:
            raise DriverError(f"dereg_mr of unknown lkey {lkey:#x}")
        entries = region.mr.get("npages")
        self.put_mtt(entries)
        region.mr.free()
        yield from kernel.sim.delay(DEREG_MR_BASE
                                    + entries * MTT_PROGRAM_COST / 2)
        return 0
