"""Failure injection across the stack: the model must fail loudly and in
the right place, mirroring real-system failure modes."""

import pytest

from repro.config import OSConfig
from repro.errors import DriverError, PageFault
from repro.experiments import build_machine
from repro.linux.hfi1 import ioctls as ioc
from repro.linux.hfi1.debuginfo import (SDMA_STATE_S80_HW_FREEZE,
                                        SDMA_STATE_S99_RUNNING)
from repro.sim import Event
from repro.units import KiB, MiB


def spawn_and_run(machine, body_fn, rank=0):
    task = machine.spawn_rank(0, rank)
    proc = machine.sim.process(body_fn(task))
    machine.sim.run()
    return proc


def test_pico_degrades_gracefully_on_frozen_sdma_engine():
    """The fast path checks engine state through the DWARF view before
    submitting; a frozen engine (set by 'Linux') no longer kills the
    caller — the fast path declines, the dispatcher re-issues the call
    over the offload path and the Linux driver recovers the engine."""
    machine = build_machine(2, OSConfig.MCKERNEL_HFI)
    driver = machine.nodes[0].driver
    # a sink context on node 1: unlike the pre-recovery version of this
    # test, the transfer now actually completes and must land somewhere
    machine.nodes[1].node.hfi.alloc_context("sink")
    for state in driver.engine_states:
        state.set("current_state", SDMA_STATE_S80_HW_FREEZE)
        state.set("go_s99_running", 0)

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 1 * MiB)
        done = Event(machine.sim)
        meta = {"dst_node": 1, "dst_ctxt": 0, "kind": "eager",
                "completion": done}
        yield from task.syscall("writev", fd, [meta, (buf, 1 * MiB)])

    proc = spawn_and_run(machine, body)
    assert proc.ok
    assert machine.tracer.get_count("pico.engine_not_running") >= 1
    assert machine.tracer.get_count("pico.fallbacks") >= 1
    assert machine.tracer.get_count("hfi.sdma_recoveries") >= 1
    # the engine the slow path used was brought back to S99 running
    assert any(state.get("current_state") == SDMA_STATE_S99_RUNNING
               and state.get("go_s99_running") == 1
               for state in driver.engine_states)


def test_pico_writev_requires_pinned_memory():
    machine = build_machine(2, OSConfig.MCKERNEL_HFI)
    mck = machine.nodes[0].mckernel

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 64 * KiB)
        # sabotage: replace the mapping with an unpinned one
        released = task.pagetable.unmap_range(buf, 64 * KiB)
        task.pagetable.map_extents(buf, released, pinned=False)
        meta = {"dst_node": 1, "dst_ctxt": 0, "kind": "expected",
                "completion": Event(machine.sim)}
        yield from task.syscall("writev", fd, [meta, (buf, 64 * KiB)])

    proc = spawn_and_run(machine, body)
    assert isinstance(proc.exception, DriverError)
    assert "unpinned" in str(proc.exception)


def test_offloaded_errors_cross_ikc_cleanly():
    """A driver error raised in Linux propagates through the IKC response
    into the McKernel caller without wedging the channel."""
    machine = build_machine(1, OSConfig.MCKERNEL)

    def bad(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_FREE,
                                {"tids": [424242]})

    proc = spawn_and_run(machine, bad)
    assert isinstance(proc.exception, DriverError)

    # channel still serves subsequent calls
    def good(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        return fd

    machine2_proc = machine.sim.process(good(machine.spawn_rank(0, 1)))
    machine.sim.run()
    assert machine2_proc.ok


def test_rcv_array_exhaustion_surfaces_to_caller():
    machine = build_machine(1, OSConfig.LINUX)
    hfi = machine.nodes[0].node.hfi
    # shrink the RcvArray by pre-programming almost all entries
    ctxt = hfi.alloc_context("hog")
    hfi.program_tids(ctxt, [(i * 4096, 4096) for i in
                            range(machine.params.nic.rcv_array_entries - 2)])

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 64 * KiB)
        yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_UPDATE,
                                {"vaddr": buf, "length": 64 * KiB})

    proc = spawn_and_run(machine, body)
    assert isinstance(proc.exception, DriverError)
    assert "RcvArray exhausted" in str(proc.exception)


def test_non_unified_dereference_page_faults():
    """Without the PicoDriver's unified layout, touching a Linux driver
    pointer from McKernel faults — the section 3.1 motivation."""
    machine = build_machine(1, OSConfig.MCKERNEL)   # original layout
    mck = machine.nodes[0].mckernel
    driver = machine.nodes[0].driver
    with pytest.raises(PageFault):
        mck.aspace.check_access(driver.devdata.addr, "hfi1_devdata")


def test_kheap_exhaustion_is_loud():
    from repro.errors import OutOfMemory
    machine = build_machine(1, OSConfig.LINUX)
    heap = machine.nodes[0].node.kheap
    with pytest.raises(OutOfMemory):
        while True:
            heap.kmalloc(1 << 16)
