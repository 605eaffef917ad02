"""Tests for the KSan cross-kernel lockset race detector.

Covers the Eraser state machine on synthetic heaps, the end-to-end
seeded violation (a rogue driver writing ``Hfi1Driver`` SDMA ring state
from McKernel without the shared lock), and the no-false-positive
guarantee on the shipped ping-pong workload in all three OS configs.
"""

import pytest

from repro.analysis.ksan import RaceDetector
from repro.config import ALL_CONFIGS, OSConfig, planes
from repro.core import (CrossKernelSpinLock, linux_layout,
                        mckernel_unified_layout)
from repro.core.structs import CStructDef, Field, StructInstance, StructView, U32
from repro.hw import SharedHeap
from repro.sim import Simulator
from repro.units import MiB

from tests.integration.test_three_configs import make_pair, transfer_once


def make_detector():
    sim = Simulator()
    heap = SharedHeap(65536)
    det = RaceDetector(sim=sim)
    heap.monitor = det
    return sim, heap, det


def make_views(heap, fields=("head", "tail")):
    """The same struct seen from both kernels (unified address space)."""
    defn = CStructDef("ring", [Field(f, U32) for f in fields])
    linux = StructInstance(defn, heap, kernel="linux")
    mck = StructInstance(defn, heap, addr=linux.addr, kernel="mckernel")
    return linux, mck


# --- the Eraser state machine on synthetic heaps -----------------------------

def test_exclusive_phase_never_alarms():
    """Single-kernel initialisation writes (Linux probe()) are exempt."""
    sim, heap, det = make_detector()
    linux, _ = make_views(heap)
    for value in range(5):
        linux.set("head", value)
        linux.set("tail", value)
    assert det.races == []
    assert det.words_tracked() == 2


def test_unlocked_cross_kernel_write_is_a_race():
    sim, heap, det = make_detector()
    linux, mck = make_views(heap)
    linux.set("head", 1)            # exclusive phase
    mck.set("head", 2)              # shares the word with no lock held
    assert len(det.races) == 1
    report = det.races[0]
    assert report.label == "ring.head"
    assert {a.kernel for a in report.accesses} == {"linux", "mckernel"}
    assert all(a.kind == "write" for a in report.accesses)


def test_read_only_sharing_is_not_a_race():
    """One writer + a foreign reader is the paper's publish pattern."""
    sim, heap, det = make_detector()
    linux, mck = make_views(heap)
    linux.set("head", 7)
    assert mck.get("head") == 7
    assert mck.get("head") == 7
    assert det.races == []


def test_atomic_rmw_is_exempt():
    """atomic_t-style counters (LOCK XADD) are race-free without a lock."""
    sim, heap, det = make_detector()
    linux, mck = make_views(heap)
    linux.set("head", 0)
    assert mck.add("head", 1) == 1
    assert linux.add("head", -1) == 0
    assert mck.add("head", 1) == 1
    assert det.races == []


def test_lock_protected_cross_kernel_writes_are_clean():
    sim, heap, det = make_detector()
    lock = CrossKernelSpinLock(sim, heap, name="shared")
    linux, mck = make_views(heap)

    def writer(view, kernel, aspace):
        yield from lock.acquire(kernel, aspace)
        try:
            view.set("head", view.get("head") + 1)
        finally:
            lock.release(kernel)

    sim.run(until=sim.process(writer(linux, "linux", linux_layout())))
    sim.run(until=sim.process(
        writer(mck, "mckernel", mckernel_unified_layout())))
    sim.run(until=sim.process(writer(linux, "linux", linux_layout())))
    assert det.races == []
    assert linux.get("head") == 3


def test_forgetting_the_lock_once_is_caught():
    """Consistent locking then ONE unlocked write empties the candidate
    lockset — the classic Eraser violation."""
    sim, heap, det = make_detector()
    lock = CrossKernelSpinLock(sim, heap, name="shared")
    linux, mck = make_views(heap)

    def locked(view, kernel, aspace):
        yield from lock.acquire(kernel, aspace)
        try:
            view.set("head", 1)
        finally:
            lock.release(kernel)

    sim.run(until=sim.process(locked(linux, "linux", linux_layout())))
    sim.run(until=sim.process(
        locked(mck, "mckernel", mckernel_unified_layout())))
    assert det.races == []
    linux.set("head", 9)            # the one forgotten lock
    assert len(det.races) == 1
    assert det.races[0].label == "ring.head"


def test_lock_word_itself_never_alarms():
    """Both kernels hammer the lock word, but with atomic annotations."""
    sim, heap, det = make_detector()
    lock = CrossKernelSpinLock(sim, heap, name="l0")

    def cycle(kernel, aspace):
        yield from lock.acquire(kernel, aspace)
        lock.release(kernel)

    sim.run(until=sim.process(cycle("linux", linux_layout())))
    sim.run(until=sim.process(cycle("mckernel", mckernel_unified_layout())))
    assert det.races == []


def test_one_report_per_word():
    sim, heap, det = make_detector()
    linux, mck = make_views(heap)
    linux.set("head", 1)
    for value in range(4):
        mck.set("head", value)
        linux.set("head", value)
    assert len(det.races) == 1


def test_unattributed_accesses_are_counted_not_analysed():
    sim, heap, det = make_detector()
    addr = heap.kmalloc(8)
    heap.write_u(addr, 4, 1)        # raw poke, no annotation
    heap.read_u(addr, 4)
    assert det.unattributed >= 2
    assert det.words_tracked() == 0
    assert det.races == []


def test_report_render_carries_full_provenance():
    sim, heap, det = make_detector()
    linux, mck = make_views(heap)
    linux.set("tail", 1)
    mck.set("tail", 2)
    text = det.races[0].render()
    assert "race on ring.tail" in text
    assert "lockset intersection is empty" in text
    assert "linux" in text and "mckernel" in text
    assert "test_ksan.py" in text   # both access sites point here
    assert "no races" not in det.summary()


def test_detector_registry_and_aggregation():
    """The ``ksan`` slot collects every machine's detectors in build
    order, and the aggregate over it holds each detector's races."""
    detectors = []
    with planes(ksan=detectors):
        first = make_pair(OSConfig.MCKERNEL_HFI)[0]
        second = make_pair(OSConfig.LINUX)[0]
    assert detectors == first.sanitizers + second.sanitizers
    assert len(detectors) == 4
    node = first.nodes[0]
    rogue = StructView(node.pico.layouts["sdma_state"], node.node.kheap,
                       node.driver.engine_states[0].addr)
    rogue.set("current_state", 0)
    reports = [report for det in detectors for report in det.races]
    assert reports == first.race_reports()
    assert len(reports) == 1


# --- machine-level: the seeded violation and the shipped workloads -----------

@pytest.fixture
def sanitized():
    """Enable KSan installation for machines built inside the test."""
    with planes(ksan=[]):
        yield


def test_machine_installs_one_detector_per_node(sanitized):
    machine = make_pair(OSConfig.MCKERNEL_HFI)[0]
    assert len(machine.sanitizers) == 2
    assert all(node.node.kheap.monitor is det
               for node, det in zip(machine.nodes, machine.sanitizers))


def test_machines_carry_no_detector_by_default():
    machine = make_pair(OSConfig.MCKERNEL_HFI)[0]
    assert machine.sanitizers == []
    assert machine.nodes[0].node.kheap.monitor is None
    assert machine.race_reports() == []


def test_rogue_unlocked_sdma_write_is_reported(sanitized):
    """The seeded violation: a test driver writes Hfi1Driver SDMA ring
    state from McKernel without taking ``hfi1.sdma_submit`` — KSan must
    report it with both access sites."""
    from repro.experiments import build_machine
    machine = build_machine(1, OSConfig.MCKERNEL_HFI)
    node = machine.nodes[0]
    rogue = StructView(node.pico.layouts["sdma_state"], node.node.kheap,
                       node.driver.engine_states[0].addr)  # kernel="mckernel"
    rogue.set("current_state", 0)   # no sdma_submit lock held
    reports = machine.race_reports()
    assert len(reports) == 1
    report = reports[0]
    assert report.label == "sdma_state.current_state"
    assert {a.kernel for a in report.accesses} == {"linux", "mckernel"}
    sites = " ".join(a.site for a in report.accesses)
    assert "driver.py" in sites     # the Linux probe() initialisation
    assert "test_ksan.py" in sites  # the rogue McKernel write


def test_locked_sdma_write_is_clean(sanitized):
    """The same write is race-free when the shared lock is held."""
    from repro.experiments import build_machine
    machine = build_machine(1, OSConfig.MCKERNEL_HFI)
    node = machine.nodes[0]
    view = StructView(node.pico.layouts["sdma_state"], node.node.kheap,
                      node.driver.engine_states[0].addr)

    def body():
        yield from node.driver.sdma_lock.acquire(
            "mckernel", node.mckernel.aspace)
        try:
            view.set("go_s99_running", 1)
        finally:
            node.driver.sdma_lock.release("mckernel")

    machine.sim.run(until=machine.sim.process(body()))
    assert machine.race_reports() == []


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_shipped_pingpong_is_race_free(sanitized, cfg):
    """The acceptance bar: zero reports across the real workload, which
    exercises offloads, the fast path, completions and foreign frees."""
    machine, s, r = make_pair(cfg)
    transfer_once(machine, s, r, 2 * MiB)
    machine.sim.run()
    assert machine.race_reports() == []
    if cfg is OSConfig.MCKERNEL_HFI:
        # the fast path really was analysed, not silently skipped
        assert any(det.words_tracked() > 10 for det in machine.sanitizers)


def test_race_detection_flag_restored_by_fixture():
    """Guard against fixture leakage into the perf-sensitive default:
    the suite-wide ``planes_off`` fixture asserts the ``ksan`` slot is
    clear around this test, after the ``sanitized`` tests above."""
