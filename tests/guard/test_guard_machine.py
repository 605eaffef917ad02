"""The guard plane wired into a live machine: build-time installation,
dispatch-time routing, failback under traffic, and suspend/resume with
queued-IO replay."""

import pytest

from repro.config import OSConfig, planes
from repro.experiments import build_machine
from repro.guard import BREAKER_CLOSED, GuardPolicy
from repro.sim import Event
from repro.units import KiB, USEC

GUARDED_KW = dict(failure_window=4, failure_threshold=1, probe_successes=1,
                  probe_backoff=50 * USEC, probe_backoff_factor=2.0,
                  probe_backoff_max=400 * USEC,
                  qdepth=32, nr_congestion_on=24, nr_congestion_off=8)


@pytest.fixture
def guarded_machine():
    with planes(guard=GuardPolicy(**GUARDED_KW)):
        yield build_machine(2, OSConfig.MCKERNEL_HFI)


def send_eager(machine, nbytes=256 * KiB, node=0):
    """One eager writev from ``node`` to a sink context on the peer."""
    peer = 1 - node
    machine.nodes[peer].node.hfi.alloc_context("sink")

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", nbytes)
        done = Event(machine.sim)
        meta = {"dst_node": peer, "dst_ctxt": 0, "kind": "eager",
                "completion": done}
        n = yield from task.syscall("writev", fd, [meta, (buf, nbytes)])
        yield done
        return n

    task = machine.spawn_rank(node, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    return proc


def test_build_installs_guard_on_every_node(guarded_machine):
    for mnode in guarded_machine.nodes:
        assert mnode.guard is not None
        assert mnode.driver.guard is mnode.guard
        # gates are index-aligned with the device's engines
        for eng in mnode.node.hfi.engines:
            assert eng.gate is mnode.guard.gates[eng.index]


def test_build_without_guard_leaves_plane_absent():
    machine = build_machine(2, OSConfig.MCKERNEL_HFI)
    for mnode in machine.nodes:
        assert mnode.guard is None and mnode.driver.guard is None
        assert all(eng.gate is None for eng in mnode.node.hfi.engines)


def test_all_breakers_open_routes_writev_to_offload(guarded_machine):
    machine = guarded_machine
    guard = machine.nodes[0].guard
    for i in range(len(guard.gates)):
        guard.record_failure(guard.engine_path(i), "forced down")
    proc = send_eager(machine)
    assert proc.ok and proc.value == 256 * KiB
    assert machine.tracer.get_count("guard.routed_offload") >= 1
    assert machine.tracer.get_count("guard.routed_offload.writev") >= 1
    # the offloaded delivery fed the offload breaker, not an engine's
    assert guard.breakers["offload"].window


def test_probe_success_fails_back_under_traffic(guarded_machine):
    machine = guarded_machine
    guard = machine.nodes[0].guard
    for i in range(len(guard.gates)):
        guard.record_failure(guard.engine_path(i), "forced down")
    machine.sim.run()  # probe backoff elapses, breakers turn PROBING
    proc = send_eager(machine)  # the probe: one writev down the fast path
    assert proc.ok
    assert machine.tracer.get_count("guard.failbacks") >= 1
    assert any(guard.breakers[guard.engine_path(i)].state == BREAKER_CLOSED
               for i in range(len(guard.gates)))


def test_suspend_parks_live_traffic_and_resume_replays(guarded_machine):
    machine = guarded_machine
    sim = machine.sim
    guard = machine.nodes[0].guard
    machine.nodes[1].node.hfi.alloc_context("sink")

    def suspender():
        yield from guard.suspend()

    sim.process(suspender())
    sim.run()
    assert guard.suspended

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 256 * KiB)
        done = Event(sim)
        meta = {"dst_node": 1, "dst_ctxt": 0, "kind": "eager",
                "completion": done}
        n = yield from task.syscall("writev", fd, [meta, (buf, 256 * KiB)])
        yield done
        return n

    task = machine.spawn_rank(0, 0)
    proc = sim.process(body(task))
    sim.run()
    assert not proc.triggered  # parked: the device is quiescent
    assert machine.tracer.get_count("guard.parked") >= 1
    guard.resume()
    sim.run()
    assert proc.ok and proc.value == 256 * KiB
    assert machine.tracer.get_count("guard.resumes") == 1
