"""Machine builder: assemble simulated nodes in each OS configuration.

* ``LINUX`` — ranks run on Linux application cores (nohz_full noise
  profile), syscalls are native, the HFI1 driver is local.
* ``MCKERNEL`` — IHK boots McKernel on the application cores (original
  address-space layout); every device syscall offloads through IKC to the
  few Linux OS cores.
* ``MCKERNEL_HFI`` — as above, but the address spaces are unified and the
  HFI PicoDriver is registered, so SDMA sends and TID registration run
  locally on LWK cores.

:func:`map_shards` fans independent cells (each builds its own machine)
across processes with output identical to the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..config import PLANES, OSConfig
from ..core.hfi_pico import HFIPicoDriver
from ..errors import ReproError
from ..hw.fabric import Fabric
from ..hw.node import Node
from ..ihk.manager import IhkManager
from ..kernels.base import Task
from ..linux.hfi1.debuginfo import CURRENT_VERSION
from ..linux.hfi1.driver import Hfi1Driver
from ..linux.kernel import LinuxKernel
from ..params import Params, default_params
from ..sim import RngFactory, Simulator, Tracer


@dataclass
class MachineNode:
    """One assembled node: hardware + kernels + drivers."""

    node: Node
    linux: LinuxKernel
    driver: Hfi1Driver
    ihk: Optional[IhkManager] = None
    mckernel: Optional[object] = None
    pico: Optional[HFIPicoDriver] = None
    ranks: List[Task] = field(default_factory=list)
    #: per-device :class:`repro.guard.GuardManager`, when
    #: ``PLANES.guard`` holds a policy (guarded runs)
    guard: Optional[object] = None
    #: the pxd replicated block-device stack, when
    #: ``params.blk.replicas > 0`` (storage runs; absent by default)
    pxd: Optional[object] = None
    pxd_pico: Optional[object] = None
    pxd_guard: Optional[object] = None


class Machine:
    """A cluster of nodes under one OS configuration."""

    def __init__(self, params: Params, n_nodes: int, os_config: OSConfig,
                 driver_version: str = CURRENT_VERSION):
        if n_nodes < 1:
            raise ReproError("machine needs at least one node")
        self.params = params
        self.os_config = os_config
        self.sim = Simulator()
        self.tracer = Tracer()
        self.rng = RngFactory(params.seed)
        self.fabric = Fabric(self.sim, params.nic)
        #: fault injector shared by the fabric, every HFI and every
        #: blockdev, when ``PLANES.faults`` holds a plan (chaos runs)
        self.injector = None
        if PLANES.faults is not None:
            from ..faults import FaultInjector
            self.injector = FaultInjector(PLANES.faults,
                                          self.rng.spawn("faults"),
                                          self.tracer)
            self.fabric.injector = self.injector
        #: KSan race detectors, one per node heap, when ``PLANES.ksan``
        #: collects them
        self.sanitizers: List[object] = []
        #: lockdep validator, one per machine (the lock-class dependency
        #: graph spans nodes), when ``PLANES.lockdep`` collects them
        self.lockdep = None
        if PLANES.lockdep is not None:
            from ..analysis.lockdep import LockdepValidator
            self.lockdep = LockdepValidator(self.sim, name="machine.lockdep")
            self.sim.wait_monitor = self.lockdep
            PLANES.lockdep.append(self.lockdep)
        self.nodes: List[MachineNode] = []
        for i in range(n_nodes):
            self.nodes.append(self._build_node(i, driver_version))
        #: traced runs: stamp trace tracks onto the kernels/devices and
        #: point the collector at this machine's clock
        if PLANES.trace is not None:
            PLANES.trace.attach_machine(self)
        #: a machine observer in the ``tune`` slot (``bench/layers.py``
        #: sets one) sees each built machine
        probe = PLANES.tune
        if probe is not None:
            probe.on_machine_built(self)

    def race_reports(self):
        """All cross-kernel races found by this machine's detectors."""
        return [report for det in self.sanitizers for report in det.races]

    def lockdep_reports(self):
        """All lock-order hazards found by this machine's validator."""
        return [] if self.lockdep is None else list(self.lockdep.reports)

    def oracle_violations(self) -> List[str]:
        """Every finding of the machine's own oracles, in a fixed order:
        per node the ``violations`` the guard, the pxd driver and the
        pxd guard recorded as they happened, then KSan races, then
        lockdep hazards.  Empty on a healthy run, and for each plane
        the machine did not install."""
        found: List[str] = []
        for mn in self.nodes:
            for owner in (mn.guard, mn.pxd, mn.pxd_guard):
                if owner is not None:
                    found += owner.violations
        found.extend(r.render() for r in self.race_reports())
        found.extend(r.render() for r in self.lockdep_reports())
        return found

    def _build_node(self, node_id: int, driver_version: str) -> MachineNode:
        node = Node(self.sim, self.params, node_id, tracer=self.tracer)
        if PLANES.ksan is not None:
            from ..analysis.ksan import RaceDetector
            detector = RaceDetector(self.sim, name=f"node{node_id}.kheap")
            node.kheap.monitor = detector
            self.sanitizers.append(detector)
            PLANES.ksan.append(detector)
        if self.lockdep is not None:
            node.kheap.add_monitor(self.lockdep)
        self.fabric.attach(node.hfi)
        node.hfi.injector = self.injector
        linux = LinuxKernel(
            self.sim, self.params, node, self.rng,
            noisy_app_cores=self.os_config.noisy_app_cores,
            tracer=self.tracer if self.os_config is OSConfig.LINUX
            else Tracer())
        driver = Hfi1Driver(version=driver_version)
        linux.load_driver(driver)
        mnode = MachineNode(node=node, linux=linux, driver=driver)
        mnode.guard = driver.guard = self._guard_manager(
            len(node.hfi.engines), f"node{node_id}")
        if mnode.guard is not None:
            for eng, gate in zip(node.hfi.engines, mnode.guard.gates):
                eng.gate = gate
        if self.params.blk.replicas > 0:
            from ..hw.blockdev import BlockDevice
            from ..linux.pxd import PxdDriver
            node.blockdev = BlockDevice(self.sim, self.params.blk, node_id,
                                        tracer=self.tracer)
            node.blockdev.injector = self.injector
            pxd = PxdDriver()
            linux.load_driver(pxd)
            mnode.pxd = pxd
            mnode.pxd_guard = pxd.guard = self._guard_manager(
                self.params.blk.replicas, f"node{node_id}.pxd",
                path_prefix="replica")
        if self.os_config.is_multikernel:
            mnode.ihk = IhkManager(self.sim, self.params, node, linux)
            mnode.mckernel = mnode.ihk.boot_mckernel(
                n_cores=self.params.node.app_cores,
                unified_address_space=self.os_config.has_picodriver)
            # the LWK's syscall accounting is the paper's kernel profiler
            mnode.mckernel.tracer = self.tracer
            if self.os_config.has_picodriver:
                mnode.pico = HFIPicoDriver(driver)
                mnode.mckernel.register_picodriver(mnode.pico)
                if mnode.pxd is not None:
                    from ..core.pxd_pico import PxdPicoDriver
                    mnode.pxd_pico = PxdPicoDriver(mnode.pxd)
                    mnode.mckernel.register_picodriver(mnode.pxd_pico)
        return mnode

    def _guard_manager(self, n_paths: int, label: str, **kw):
        """A :class:`repro.guard.GuardManager` over ``n_paths`` paths
        under ``PLANES.guard``'s policy, or ``None`` when unguarded."""
        if PLANES.guard is None:
            return None
        from ..guard import GuardManager
        return GuardManager(self.sim, PLANES.guard, n_paths,
                            tracer=self.tracer, label=label, **kw)

    # -- rank placement --------------------------------------------------------

    def app_kernel(self, node_idx: int):
        """The kernel application ranks run on for this configuration."""
        mnode = self.nodes[node_idx]
        return mnode.mckernel if self.os_config.is_multikernel else mnode.linux

    def spawn_rank(self, node_idx: int, local_rank: int,
                   global_rank: Optional[int] = None) -> Task:
        """Create one application rank pinned to its own core."""
        mnode = self.nodes[node_idx]
        name = f"rank{global_rank if global_rank is not None else local_rank}"
        rng = self.rng.stream("rank", node_idx, local_rank)
        if self.os_config.is_multikernel:
            core = mnode.mckernel.partition.cores[
                local_rank % len(mnode.mckernel.partition.cores)].core_id
            task = mnode.mckernel.spawn_process(name, core_id=core, rng=rng)
        else:
            app_cores = [c for c in mnode.node.cpus
                         if c.core_id >= self.params.node.os_cores]
            core = app_cores[local_rank % len(app_cores)].core_id
            task = mnode.linux.spawn_task(name, core, rng)
        mnode.ranks.append(task)
        return task


def build_machine(n_nodes: int, os_config: OSConfig,
                  params: Optional[Params] = None,
                  driver_version: str = CURRENT_VERSION) -> Machine:
    """Convenience constructor with default calibration."""
    return Machine(params if params is not None else default_params(),
                   n_nodes, os_config, driver_version)


def _indexed_call(payload):
    """Worker-side shim: run ``fn(item)`` and tag it with its index
    (top-level so it pickles under any start method)."""
    fn, index, item = payload
    return index, fn(item)


def map_shards(fn: Callable, items: Sequence, workers: int = 1) -> List:
    """Map ``fn`` over ``items``, optionally across processes.

    ``fn`` must be a top-level (picklable) pure function.  With
    ``workers <= 1`` this is a plain serial loop; otherwise a process
    pool (``fork`` where the platform has it, so workers inherit warm
    imports) evaluates the items concurrently and the results are
    reassembled in submission order, making the output bit-identical
    to the serial loop for pure ``fn``.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    out: List = [None] * len(items)
    with ctx.Pool(processes=min(workers, len(items))) as pool:
        payloads = [(fn, i, item) for i, item in enumerate(items)]
        for index, result in pool.imap_unordered(_indexed_call, payloads):
            out[index] = result
    return out
