"""The McKernel lightweight kernel.

Syscall routing (sections 2.1, 3):

* anonymous ``mmap`` — local, contiguous/large-page memory;
* ``munmap`` — local teardown *plus* an offloaded shadow-unmap keeping the
  proxy's view coherent (the cost Figure 9 exposes);
* ``nanosleep`` and scheduling — local (tick-less);
* device-file syscalls — offered to a registered PicoDriver first; claimed
  calls run on the LWK core (fast path), everything else offloads to the
  unmodified Linux driver through the proxy process;
* everything else — offloaded.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import PLANES
from ..core.lockclasses import declare_lock_class
from ..core.picodriver import PicoDriverRegistry
from ..errors import BadSyscall, FastPathUnavailable, ReproError
from ..hw.node import Node
from ..ihk.ikc import IkcChannel
from ..ihk.partition import IhkPartition
from ..kernels.base import KernelBase, Task
from ..linux.kernel import LinuxKernel
from ..linux.vfs import File
from ..obs.spans import track_of
from ..params import Params
from ..sim import Simulator, Tracer
from ..units import pages_for
from .mm import LwkMM, PerCoreAllocator
from .proxy import ProxyProcess
from .scheduler import CoopScheduler

# The dispatcher lock ranks *below* every device lock: a fast path runs
# under syscall dispatch and then takes its device's submit lock, never
# the other way around.  Declared without an instance — the current
# dispatcher is per-core cooperative and needs no shared word — so the
# hierarchy slot is reserved before anyone grows a cross-kernel
# dispatcher and discovers the inversion the hard way.
declare_lock_class(
    "mckernel.dispatch", rank=10, subsystem="mckernel",
    attrs=("dispatch_lock",),
    doc="orders LWK syscall dispatch against device fast paths")

#: fd-based syscalls that may target a device file
_FD_SYSCALLS = ("close", "read", "writev", "ioctl", "poll", "lseek")


class McKernel(KernelBase):
    """One LWK instance, booted by IHK next to Linux on the same node."""

    name = "mckernel"

    def __init__(self, sim: Simulator, params: Params, node: Node,
                 linux: LinuxKernel, ikc: IkcChannel,
                 partition: IhkPartition, aspace,
                 tracer: Optional[Tracer] = None):
        super().__init__(sim, params, tracer)
        self.node = node
        self.linux = linux
        self.ikc = ikc
        self.partition = partition
        self.aspace = aspace
        self.mm = LwkMM(params, partition.lwk_allocator)
        core_ids = [c.core_id for c in partition.cores]
        self.alloc = PerCoreAllocator(params, node.kheap, set(core_ids))
        self.sched = CoopScheduler(core_ids)
        self.pico = PicoDriverRegistry()
        self.proxies: Dict[str, ProxyProcess] = {}
        #: fd -> (device path, Linux file object) per task, mirrored from
        #: the proxy's fd table after device opens
        self._device_fds: Dict[str, Dict[int, Tuple[str, File]]] = {}
        node.mckernel = self

    # -- process management ----------------------------------------------------

    def spawn_process(self, name: str, core_id: Optional[int] = None,
                      rng=None) -> Task:
        """Create an LWK process and its Linux-side proxy."""
        task = self.spawn_task(name, core_id if core_id is not None else -1,
                               rng)
        placed = self.sched.enqueue(task, core_id)
        task.core_id = placed
        os_core = self.node.cpus.owned_by("linux")[0].core_id
        proxy_task = self.linux.spawn_task(f"{name}.proxy", os_core, rng)
        # the proxy mirrors the application's user address space (partially
        # separated page tables): offloaded driver calls resolve user
        # buffers through the same mappings the LWK installed
        proxy_task.pagetable = task.pagetable
        self.proxies[name] = ProxyProcess(task, proxy_task)
        self._device_fds[name] = {}
        return task

    def proxy_for(self, task: Task) -> ProxyProcess:
        """The Linux-side proxy process of an LWK task."""
        proxy = self.proxies.get(task.name)
        if proxy is None:
            raise ReproError(f"{task.name} has no proxy process")
        return proxy

    def device_file(self, task: Task, fd: int) -> Tuple[str, File]:
        """(path, Linux file) behind a device fd of this task."""
        entry = self._device_fds.get(task.name, {}).get(fd)
        if entry is None:
            raise BadSyscall(f"{task.name}: fd {fd} is not an open device")
        return entry

    # -- time ----------------------------------------------------------------------

    def execute(self, task: Task, seconds: float):
        """Generator: tick-less computation.

        No noise is ever added (the LWK's defining property), but if the
        co-operative scheduler has several tasks on this core they share
        it, so wall time scales with the run-queue depth.
        """
        if seconds <= 0:
            return None
        load = max(1, self.sched.load(task.core_id))
        yield from self.sim.delay(seconds * load)
        return None

    # -- PicoDriver registration -------------------------------------------------

    def register_picodriver(self, driver) -> None:
        """Attach a fast-path driver (verifies unification + layouts)."""
        driver.attach(self)
        self.pico.register(driver)

    # -- syscall dispatch ------------------------------------------------------------

    def syscall(self, task: Task, name: str, *args):
        """Generator: LWK entry cost + routing + per-call accounting."""
        t0 = self.sim.now
        span = PLANES.trace.begin_span(
            f"lwk.{name}", track_of(self), cat="syscall",
            args={"task": task.name}) if PLANES.trace is not None else None
        try:
            yield from self.sim.delay(self.params.syscall.lwk_entry)
            ret = yield from self._dispatch(task, name, args)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        self.account_syscall(name, self.sim.now - t0)
        return ret

    def _dispatch(self, task: Task, name: str, args: tuple):
        sc = self.params.syscall
        # --- locally implemented services ---
        if name == "mmap" and len(args) == 1:
            length, = args
            yield from self.sim.delay(sc.mmap_cost
                                      + pages_for(length) * sc.page_map_cost)
            return self.mm.alloc_anonymous(task, length)
        if name == "munmap":
            self.check_args(name, args, 2)
            vaddr, length = args
            yield from self.sim.delay(sc.munmap_cost
                                      + pages_for(length) * sc.page_unmap_cost)
            self.mm.free_anonymous(task, vaddr, length)
            # keep the proxy's address space coherent — an offloaded
            # shadow unmap (the residual cost of Figure 9)
            yield from self._offload(task, "munmap_shadow", (vaddr, length))
            return 0
        if name == "nanosleep":
            self.check_args(name, args, 1)
            duration, = args
            yield from self.sim.delay(sc.nanosleep_cost / 2 + duration)
            return 0
        # --- device fast path ---
        if name in _FD_SYSCALLS or (name == "mmap" and len(args) == 2):
            fd = args[0]
            entry = self._device_fds.get(task.name, {}).get(fd)
            if entry is not None:
                path, _file = entry
                handled = self.pico.decide(path, name, args)
                self.tracer.count(
                    f"pico.{'fast' if handled else 'offload'}.{name}")
                if handled:
                    driver = self.pico.lookup(path)
                    guard = driver.linux_driver.guard
                    if guard is not None and not guard.admits(name):
                        # Dispatch-time routing: every path the guard
                        # tracks for this call is DOWN, so go straight
                        # to offload without exception churn.
                        self.tracer.count("guard.routed_offload")
                        self.tracer.count(f"guard.routed_offload.{name}")
                        ret = yield from self._guarded_offload(
                            task, name, args, guard)
                        return ret
                    try:
                        ret = yield from driver.fast_call(task, name, args)
                        return ret
                    except FastPathUnavailable as exc:
                        # Graceful degradation: the fast path declined
                        # (halted engine, failed submit); the unmodified
                        # Linux driver handles everything, so re-issue
                        # the call over the offload path.
                        self.tracer.count("pico.fallbacks")
                        self.tracer.count(f"pico.fallback.{name}")
                        if exc.engine is not None:
                            # per-engine attribution so flap reports can
                            # name which engine degraded
                            self.tracer.count(
                                f"pico.fallback.engine{exc.engine}")
                        if PLANES.trace is not None:
                            PLANES.trace.instant_span(
                                "pico.fallback", track_of(self),
                                cat="recovery",
                                args={"syscall": name,
                                      "engine": exc.engine})
                        if guard is not None:
                            ret = yield from self._guarded_offload(
                                task, name, args, guard)
                        else:
                            ret = yield from self._offload(task, name, args)
                        return ret
                if name == "close":
                    ret = yield from self._offload(task, name, args)
                    self._device_fds[task.name].pop(fd, None)
                    return ret
        # --- everything else: system call offloading ---
        ret = yield from self._offload(task, name, args)
        if name == "open":
            path = args[0]
            if self.linux.vfs.is_device(path):
                proxy = self.proxy_for(task)
                file = self.linux.vfs.file_for(proxy.name, ret)
                self._device_fds[task.name][ret] = (path, file)
        return ret

    def _guarded_offload(self, task: Task, name: str, args: tuple, guard):
        """Offload with the outcome fed to the guard's offload breaker.

        The offload path is the route of last resort, so its breaker
        never blocks dispatch — it only attributes failures so a flap
        report can tell "fast path degraded" from "device dead".
        """
        try:
            ret = yield from self._offload(task, name, args)
        except ReproError as exc:
            if guard is not None:
                guard.record_failure("offload",
                                     f"{type(exc).__name__}: {exc}")
            raise
        if guard is not None:
            guard.record_success("offload")
        return ret

    def _offload(self, task: Task, name: str, args: tuple):
        self.tracer.count("offload.calls")
        proxy = self.proxy_for(task)
        span = PLANES.trace.begin_span(
            f"ikc.offload.{name}", track_of(self), cat="offload",
            args=proxy.trace_identity()) if PLANES.trace is not None else None
        try:
            ret = yield from self.ikc.call(proxy.linux_task, name, args,
                                           cause=span)
        finally:
            if PLANES.trace is not None and span is not None:
                PLANES.trace.end_span(span)
        return ret
