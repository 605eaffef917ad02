"""Machine-builder invariants for the three OS configurations, the
machine-observer slot, and the order-preserving shard map."""

import pytest

from repro.apps.imb import PingPong
from repro.config import ALL_CONFIGS, OSConfig, planes
from repro.core.address_space import (LINUX_DIRECT_MAP_BASE,
                                      validate_unification)
from repro.core.sync import rcu_synchronize
from repro.errors import ReproError
from repro.experiments import build_machine
from repro.experiments.common import map_shards
from repro.units import KiB


def test_linux_config_has_no_lwk():
    m = build_machine(1, OSConfig.LINUX)
    node = m.nodes[0]
    assert node.mckernel is None and node.pico is None
    assert node.linux.noisy_app_cores
    # all cores stay with Linux
    assert len(node.node.cpus.owned_by("linux")) == m.params.node.total_cores


def test_mckernel_config_partitions_cores():
    m = build_machine(1, OSConfig.MCKERNEL)
    node = m.nodes[0]
    assert node.mckernel is not None and node.pico is None
    assert not node.linux.noisy_app_cores
    assert len(node.node.cpus.owned_by("mckernel")) == m.params.node.app_cores
    assert len(node.node.cpus.owned_by("linux")) == (
        m.params.node.total_cores - m.params.node.app_cores)


def test_mckernel_config_keeps_original_layout():
    m = build_machine(1, OSConfig.MCKERNEL)
    aspace = m.nodes[0].mckernel.aspace
    assert aspace.regions["direct_map"].start != LINUX_DIRECT_MAP_BASE


def test_hfi_config_is_unified_with_pico():
    m = build_machine(1, OSConfig.MCKERNEL_HFI)
    node = m.nodes[0]
    assert node.pico is not None
    validate_unification(node.linux.aspace, node.mckernel.aspace)
    assert node.mckernel.pico.lookup("/dev/hfi1_0") is node.pico
    assert node.mckernel.alloc.foreign_free_enabled


def test_driver_loaded_on_every_node():
    m = build_machine(3, OSConfig.LINUX)
    for node in m.nodes:
        assert node.linux.vfs.is_device("/dev/hfi1_0")
        assert node.node.hfi.irq_dispatcher is not None


def test_fabric_connects_all_nodes():
    m = build_machine(4, OSConfig.LINUX)
    assert len(m.fabric) == 4
    for node in m.nodes:
        assert node.node.hfi.fabric is m.fabric


def test_spawn_rank_pins_to_distinct_cores():
    m = build_machine(1, OSConfig.MCKERNEL)
    tasks = [m.spawn_rank(0, i) for i in range(8)]
    assert len({t.core_id for t in tasks}) == 8
    assert all(t.kernel is m.nodes[0].mckernel for t in tasks)


def test_spawn_rank_on_linux_config_avoids_os_cores():
    m = build_machine(1, OSConfig.LINUX)
    task = m.spawn_rank(0, 0)
    assert task.core_id >= m.params.node.os_cores


def test_zero_nodes_rejected():
    with pytest.raises(ReproError):
        build_machine(0, OSConfig.LINUX)


def test_kernel_profiler_tracer_wiring():
    """Figures 8-9 read the app kernel's syscall accounting: Linux's
    tracer in the LINUX config, McKernel's in the multi-kernel ones."""
    m = build_machine(1, OSConfig.MCKERNEL_HFI)
    assert m.nodes[0].mckernel.tracer is m.tracer
    assert m.nodes[0].linux.tracer is not m.tracer
    m2 = build_machine(1, OSConfig.LINUX)
    assert m2.nodes[0].linux.tracer is m2.tracer


def test_rcu_is_explicitly_unsupported():
    with pytest.raises(NotImplementedError, match="future work"):
        rcu_synchronize()


class _Recorder:
    """A machine observer: keeps every machine built while installed."""

    def __init__(self):
        self.machines = []

    def on_machine_built(self, machine):
        self.machines.append(machine)


def _pingpong(machine):
    """One eager and one rendezvous size: bandwidths and tracer counters."""
    bandwidth = PingPong(machine, repetitions=1, warmup=1).run(
        [64, 256 * KiB])
    return bandwidth, dict(machine.tracer.counters)


def test_observer_slot_sees_each_machine_once_and_moves_nothing():
    """``bench/layers.py`` reads each machine's counters through the
    ``tune`` slot: under ``planes(tune=...)`` every build hands its
    machine to ``on_machine_built`` exactly once, and an observed
    ping-pong equals an unobserved one."""
    plain = [_pingpong(build_machine(2, cfg)) for cfg in ALL_CONFIGS]
    recorder = _Recorder()
    with planes(tune=recorder):
        machines = [build_machine(2, cfg) for cfg in ALL_CONFIGS]
        observed = [_pingpong(m) for m in machines]
    assert len(recorder.machines) == len(machines)
    assert all(seen is built
               for seen, built in zip(recorder.machines, machines))
    assert observed == plain


def _square(x):
    """Top-level so the pool can pickle it."""
    return x * x


def test_map_shards_parallel_equals_serial():
    items = list(range(17))
    serial = map_shards(_square, items, workers=1)
    parallel = map_shards(_square, items, workers=4)
    assert serial == parallel == [x * x for x in items]


def test_map_shards_handles_trivial_inputs():
    assert map_shards(_square, [], workers=4) == []
    assert map_shards(_square, [3], workers=4) == [9]
