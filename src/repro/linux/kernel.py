"""The Linux kernel: syscall dispatch, fd tables, drivers, OS CPUs.

In the Linux OS configuration application ranks run here natively; in the
multi-kernel configurations this kernel serves offloaded syscalls through
the proxy processes and handles all device IRQs, using only the few cores
IHK left it.
"""

from __future__ import annotations

from typing import Optional

from ..config import PLANES
from ..errors import BadSyscall
from ..hw.node import Node
from ..obs.spans import track_of
from ..kernels.base import KernelBase, Task
from ..params import Params
from ..sim import Resource, Simulator, Tracer
from ..units import pages_for
from ..core.address_space import KernelAddressSpace, linux_layout
from .interrupts import InterruptController
from .mm import LinuxMM
from .noise import NoNoise, NoiseModel
from .vfs import File, VFS


class LinuxKernel(KernelBase):
    """One Linux instance per node."""

    name = "linux"

    def __init__(self, sim: Simulator, params: Params, node: Node,
                 rng_factory, noisy_app_cores: bool = True,
                 os_cores: Optional[int] = None,
                 tracer: Optional[Tracer] = None):
        super().__init__(sim, params, tracer)
        self.node = node
        self.rng_factory = rng_factory
        self.noisy_app_cores = noisy_app_cores
        self.aspace: KernelAddressSpace = linux_layout()
        self.vfs = VFS()
        from .device_model import DeviceModel
        self.devices = DeviceModel()
        self.mm = LinuxMM(params, node.mcdram, node.ddr,
                          rng_factory.stream("linux.mm", node.node_id))
        n_os = params.node.os_cores if os_cores is None else os_cores
        #: the OS-activity CPU pool: offload service, IRQs, daemons.
        self.os_cpus = Resource(sim, capacity=n_os,
                                name=f"node{node.node_id}.linux.os_cpus")
        self.interrupts = InterruptController(sim, params, self.os_cpus,
                                              self.tracer)
        self.drivers = {}
        node.linux = self

    # -- driver loading ------------------------------------------------------

    def load_driver(self, driver) -> None:
        """Load a device driver module (registers its chrdev + IRQs)."""
        driver.probe(self)
        self.drivers[driver.device_path] = driver

    # -- time ------------------------------------------------------------------

    def noise_for(self, task: Task):
        """The noise model for a task (NoNoise on quiet cores)."""
        if self.noisy_app_cores:
            rng = task.rng if task.rng is not None else \
                self.rng_factory.stream("noise", self.node.node_id,
                                        task.core_id)
            return NoiseModel(self.params.noise, rng)
        return NoNoise()

    def execute(self, task: Task, seconds: float):
        """Generator: run computation, inflated by residual OS noise."""
        if seconds <= 0:
            return None
        noise = task.state.get("noise_model")
        if noise is None:
            noise = task.state["noise_model"] = self.noise_for(task)
        yield from self.sim.delay(noise.inflate(seconds))
        return None

    # -- syscalls ---------------------------------------------------------------

    def syscall(self, task: Task, name: str, *args):
        """Generator: entry cost + dispatch + per-call accounting."""
        t0 = self.sim.now
        span = PLANES.trace.begin_span(
            f"linux.{name}", track_of(self), cat="syscall",
            args={"task": task.name}) if PLANES.trace is not None else None
        try:
            yield from self.sim.delay(self.params.syscall.linux_entry)
            ret = yield from self._dispatch(task, name, args)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.account_syscall(name, self.sim.now - t0)
        return ret

    def _dispatch(self, task: Task, name: str, args: tuple):
        sc = self.params.syscall
        if name == "open":
            self.check_args(name, args, 1)
            path, = args
            yield from self.sim.delay(sc.open_cost)
            file = File(path, self.vfs.lookup(path))
            yield from file.ops.open(self, file, task)
            return self.vfs.install_fd(task.name, file)
        if name == "close":
            self.check_args(name, args, 1)
            fd, = args
            file = self.vfs.close_fd(task.name, fd)
            yield from self.sim.delay(sc.close_cost)
            yield from file.ops.release(self, file, task)
            return 0
        if name == "read":
            self.check_args(name, args, 2)
            fd, nbytes = args
            file = self.vfs.file_for(task.name, fd)
            yield from self.sim.delay(sc.read_cost)
            sysfs = self.devices.lookup_attr(file.path)
            if sysfs is not None:
                device, attr = sysfs
                return device.read_attr(attr)
            return nbytes
        if name == "writev":
            self.check_args(name, args, 2)
            fd, iovecs = args
            file = self.vfs.file_for(task.name, fd)
            return (yield from file.ops.writev(self, file, task, iovecs))
        if name == "ioctl":
            self.check_args(name, args, 3)
            fd, cmd, arg = args
            file = self.vfs.file_for(task.name, fd)
            return (yield from file.ops.ioctl(self, file, task, cmd, arg))
        if name == "poll":
            self.check_args(name, args, 1)
            fd, = args
            file = self.vfs.file_for(task.name, fd)
            yield from self.sim.delay(sc.poll_cost)
            return (yield from file.ops.poll(self, file, task))
        if name == "lseek":
            self.check_args(name, args, 2)
            fd, offset = args
            file = self.vfs.file_for(task.name, fd)
            yield from self.sim.delay(sc.read_cost)
            return (yield from file.ops.lseek(self, file, task, offset))
        if name == "mmap":
            return (yield from self._sys_mmap(task, args))
        if name == "munmap":
            self.check_args(name, args, 2)
            vaddr, length = args
            yield from self.sim.delay(sc.munmap_cost
                                      + pages_for(length) * sc.page_unmap_cost)
            self.mm.free_anonymous(task, vaddr, length)
            return 0
        if name == "munmap_shadow":
            # proxy-process address-space sync for an LWK-local munmap:
            # tear down the shadow mappings without touching LWK frames
            self.check_args(name, args, 2)
            _vaddr, length = args
            yield from self.sim.delay(sc.munmap_cost
                                      + pages_for(length) * sc.page_unmap_cost)
            return 0
        if name == "nanosleep":
            self.check_args(name, args, 1)
            duration, = args
            yield from self.sim.delay(sc.nanosleep_cost + duration)
            return 0
        raise BadSyscall(f"linux: unknown syscall {name!r}")

    def _sys_mmap(self, task: Task, args: tuple):
        sc = self.params.syscall
        if len(args) == 1:                       # anonymous: (length,)
            length, = args
            yield from self.sim.delay(sc.mmap_cost
                                      + pages_for(length) * sc.page_map_cost)
            return self.mm.alloc_anonymous(task, length)
        if len(args) == 2:                       # device: (fd, length)
            fd, length = args
            file = self.vfs.file_for(task.name, fd)
            yield from self.sim.delay(sc.mmap_cost)
            return (yield from file.ops.mmap(self, file, task, length))
        raise BadSyscall(f"mmap expects 1 or 2 args, got {len(args)}")
