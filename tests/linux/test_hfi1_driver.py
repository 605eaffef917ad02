"""Tests of the HFI1 Linux driver's file operations and driver state."""

import ast
import pathlib

import pytest

from repro.config import ALL_CONFIGS, OSConfig
from repro.errors import BadSyscall, DriverError
from repro.experiments import build_machine
from repro.hw.hfi import SdmaEngine
from repro.linux import hfi1
from repro.linux.hfi1 import ioctls as ioc
from repro.sim import Event
from repro.units import KiB, MiB, PAGE_SIZE


@pytest.fixture()
def machine():
    return build_machine(2, OSConfig.LINUX)


def run(machine, body, rank=0, node=0):
    task = machine.spawn_rank(node, rank)
    proc = machine.sim.process(body(task))
    machine.sim.run(until=proc)
    return proc.value


def test_open_allocates_driver_structs(machine):
    driver = machine.nodes[0].driver

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        return fd

    fd = run(machine, body)
    heap = machine.nodes[0].node.kheap
    # devdata + 16 engine states + filedata + pkt_q + lock word
    assert heap.live_objects() >= 19
    assert len(driver._files) == 1


def test_release_frees_driver_structs(machine):
    driver = machine.nodes[0].driver

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        yield from task.syscall("close", fd)

    run(machine, body)
    assert len(driver._files) == 0


def test_admin_ioctls_answer(machine):
    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        info = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_CTXT_INFO, None)
        vers = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_GET_VERS, None)
        user = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_USER_INFO, None)
        return info, vers, user

    info, vers, user = run(machine, body)
    assert "ctxt" in info and info["credits"] == 64
    assert vers == 6
    assert user["num_sdma"] == machine.params.nic.sdma_engines


def test_unknown_ioctl_rejected(machine):
    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        yield from task.syscall("ioctl", fd, 0x1234, None)

    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert isinstance(proc.exception, BadSyscall)


def test_tid_update_registers_one_entry_per_page(machine):
    """The unmodified driver cannot exploit contiguity for TIDs either."""
    hfi = machine.nodes[0].node.hfi

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 64 * KiB)
        tids = yield from task.syscall(
            "ioctl", fd, ioc.HFI1_IOCTL_TID_UPDATE,
            {"vaddr": buf, "length": 64 * KiB})
        return fd, tids

    fd, tids = run(machine, body)
    assert len(tids) == 16                      # one per 4KB page
    assert hfi.tids_in_use == 16


def test_tid_free_releases_entries(machine):
    hfi = machine.nodes[0].node.hfi

    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 16 * KiB)
        tids = yield from task.syscall(
            "ioctl", fd, ioc.HFI1_IOCTL_TID_UPDATE,
            {"vaddr": buf, "length": 16 * KiB})
        n = yield from task.syscall(
            "ioctl", fd, ioc.HFI1_IOCTL_TID_FREE, {"tids": tids})
        return n

    assert run(machine, body) == 4
    assert hfi.tids_in_use == 0


def test_tid_free_of_unowned_tid_rejected(machine):
    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_FREE,
                                {"tids": [777]})

    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert isinstance(proc.exception, DriverError)


def test_writev_delivers_and_completes(machine):
    sim = machine.sim
    got = []

    def receiver(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        info = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_ASSIGN_CTXT, None)
        ctxt = machine.nodes[1].node.hfi.context(info["ctxt"])
        ctxt.on_packet = lambda pkt: got.append(pkt)
        return info["ctxt"]

    ctxt_id = run(machine, receiver, node=1)

    def sender(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 1 * MiB)
        done = Event(sim)
        meta = {"dst_node": 1, "dst_ctxt": ctxt_id, "kind": "eager",
                "completion": done, "payload": "DATA"}
        n = yield from task.syscall("writev", fd, [meta, (buf, 1 * MiB)])
        yield done
        return n

    assert run(machine, sender, node=0) == 1 * MiB
    machine.sim.run()
    assert len(got) == 1 and got[0].payload == "DATA"
    assert got[0].nbytes == 1 * MiB


#: data iovecs as (offset into the buffer, length), then each iovec's
#: descriptor sizes per base page (Linux, offloaded McKernel) and
#: coalesced (PicoDriver)
_MULTI_IOVEC = {
    "two-small": ([(0, 100), (3 * PAGE_SIZE + 8, 100)],
                  [[100], [100]], [[100], [100]]),
    "page-crossing": ([(0, 6000), (16 * KiB, 5000)],
                      [[4096, 1904], [4096, 904]], [[6000], [5000]]),
    "zero-length": ([(0, 100), (PAGE_SIZE + 8, 0), (2 * PAGE_SIZE, 100)],
                    [[100], [], [100]], [[100], [], [100]]),
}


def _send_iovecs(machine, iovs):
    """writev ``iovs`` (offsets into a fresh buffer) from node 0 to a
    context on node 1; returns (the call's result or error, the
    sender's task, the buffer)."""
    sim = machine.sim

    def receiver(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        info = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_ASSIGN_CTXT, None)
        return info["ctxt"]

    ctxt_id = run(machine, receiver, node=1)
    task = machine.spawn_rank(0, 0)

    def sender():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 64 * KiB)
        done = Event(sim)
        meta = {"dst_node": 1, "dst_ctxt": ctxt_id, "kind": "eager",
                "completion": done}
        try:
            n = yield from task.syscall(
                "writev", fd, [meta] + [(buf + off, n) for off, n in iovs])
        except DriverError as exc:
            return exc, buf
        yield done
        return n, buf

    proc = sim.process(sender())
    sim.run(until=proc)
    result, buf = proc.value
    return result, task, buf


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
@pytest.mark.parametrize("case", sorted(_MULTI_IOVEC))
def test_writev_chops_each_data_iovec_from_its_own_pages(cfg, case,
                                                        monkeypatch):
    """Each data iovec becomes its own run of descriptors, starting at
    its own physical address: per base page on Linux and on the
    offloaded McKernel path, coalesced on the PicoDriver fast path.  A
    zero-length iovec adds no descriptor."""
    iovs, per_page, coalesced = _MULTI_IOVEC[case]
    chains = []
    submit = SdmaEngine.submit

    def capture(engine, group):
        chains.append((list(group.descriptors.paddrs),
                       list(group.descriptors.sizes)))
        return submit(engine, group)

    monkeypatch.setattr(SdmaEngine, "submit", capture)
    machine = build_machine(2, cfg)
    n, task, buf = _send_iovecs(machine, iovs)
    assert n == sum(length for _, length in iovs)
    runs = coalesced if cfg is OSConfig.MCKERNEL_HFI else per_page
    paddrs = []
    for (off, _length), sizes in zip(iovs, runs):
        paddrs += [task.pagetable.translate(buf + off + sum(sizes[:k]))
                   for k in range(len(sizes))]
    assert chains == [(paddrs, [s for sizes in runs for s in sizes])]


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_writev_of_no_bytes_is_rejected(cfg):
    """Data iovecs that are all empty are refused with the request's
    length, on every config (the fast path defers to the slow path)."""
    machine = build_machine(2, cfg)
    exc, _task, _buf = _send_iovecs(machine, [(8, 0), (PAGE_SIZE, 0)])
    assert isinstance(exc, DriverError)
    assert str(exc).endswith("bad SDMA length 0")


def test_writev_pq_counter_balances(machine):
    """n_reqs in the shared user_sdma_pkt_q struct rises and falls."""
    driver = machine.nodes[0].driver
    sim = machine.sim

    def receiver(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        info = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_ASSIGN_CTXT, None)
        return info["ctxt"]

    ctxt_id = run(machine, receiver, node=1)

    def sender(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 256 * KiB)
        done = Event(sim)
        meta = {"dst_node": 1, "dst_ctxt": ctxt_id, "kind": "eager",
                "completion": done}
        yield from task.syscall("writev", fd, [meta, (buf, 256 * KiB)])
        state = list(driver._files.values())[-1]
        in_flight = state.pq.get("n_reqs")
        yield done
        return in_flight, state.pq.get("n_reqs")

    in_flight, after = run(machine, sender, node=0)
    assert in_flight == 1
    assert after == 0


def test_writev_needs_header_and_data(machine):
    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        yield from task.syscall("writev", fd, [{}])

    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert isinstance(proc.exception, BadSyscall)


def test_device_mmap_returns_mmio_window(machine):
    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        addr = yield from task.syscall("mmap", fd, 0x10000)
        return addr

    assert run(machine, body) >= 0x7FFF_0000_0000


def test_poll_reports_backlog(machine):
    def body(task):
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        empty = yield from task.syscall("poll", fd)
        return empty

    assert run(machine, body) == 0


def test_engine_states_report_running(machine):
    driver = machine.nodes[0].driver
    from repro.linux.hfi1.debuginfo import SDMA_STATE_S99_RUNNING
    for state in driver.engine_states:
        assert state.get("current_state") == SDMA_STATE_S99_RUNNING
        assert state.get("go_s99_running") == 1


#: what a driver would import to tell which kernel it serves
FORBIDDEN = ("picodriver", "hfi_pico", "mckernel", "OSConfig")


def test_driver_has_no_picodriver_conditionals():
    """The paper's "no modifications to the original Linux driver": no
    hfi1 module imports the PicoDriver, McKernel or the OS configuration,
    or asks whether a multi-kernel runs, so no path can branch on it."""
    for path in pathlib.Path(hfi1.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
                assert not [n for n in names for bad in FORBIDDEN
                            if bad in n], path.name
            assert getattr(node, "attr", None) != "is_multikernel", path.name
