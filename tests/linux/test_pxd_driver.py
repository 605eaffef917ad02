"""Tests of the pxd Linux driver: replicated writes, eviction, reads,
the admin ioctl surface and guard-driven probe/readmit."""

from dataclasses import replace

from repro.config import OSConfig, planes
from repro.errors import BadSyscall, MediaError
from repro.experiments import build_machine
from repro.guard import GuardPolicy
from repro.linux.pxd import ioctls as ioc
from repro.params import default_params
from repro.sim import Event
from repro.units import USEC


def storage_params(replicas=3):
    params = default_params()
    return params.with_overrides(blk=replace(params.blk, replicas=replicas))


def make_machine(replicas=3, cfg=OSConfig.LINUX):
    machine = build_machine(1, cfg, params=storage_params(replicas))
    return machine, machine.nodes[0].pxd, machine.nodes[0].node.blockdev


def run(machine, body, rank=0):
    task = machine.spawn_rank(0, rank)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    return proc


def payload_for(i, sector_size, nsectors=2):
    return bytes([(13 * i + 5) & 0xFF]) * (nsectors * sector_size)


def write(machine, task, fd, buf, sector, payload):
    """Generator helper: one replicated write, waited to completion."""
    completion = Event(machine.sim)
    yield from task.syscall(
        "writev", fd,
        [{"sector": sector, "payload": payload, "completion": completion},
         (buf, len(payload))])
    yield completion


def test_write_read_roundtrip_mirrors_all_replicas():
    machine, pxd, blockdev = make_machine()
    sector_size = machine.params.blk.sector_size
    payload = payload_for(1, sector_size)

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", len(payload))
        yield from write(machine, task, fd, buf, 8, payload)
        data = yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_READ,
                                       {"sector": 8, "nsectors": 2})
        return data

    proc = run(machine, body)
    assert proc.exception is None
    assert proc.value == payload
    for media in blockdev.replicas:
        assert media.peek(8, 2) == payload
    assert machine.tracer.get_count("pxd.writes") == 1
    assert machine.tracer.get_count("pxd.acked_writes") == 1
    assert machine.tracer.get_count("pxd.reads") == 1
    assert pxd.stats()["wr_seq"] == 1


def test_unaligned_payload_rejected():
    machine, pxd, _ = make_machine()
    sector_size = machine.params.blk.sector_size

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", sector_size)
        yield from write(machine, task, fd, buf, 0,
                         b"x" * (sector_size + 1))

    assert isinstance(run(machine, body).exception, BadSyscall)


def test_probe_scratch_sector_is_outside_the_data_region():
    machine, pxd, _ = make_machine()
    sector_size = machine.params.blk.sector_size
    assert pxd.data_sectors == machine.params.blk.sectors - 1
    assert pxd.probe_sector == pxd.data_sectors

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", sector_size)
        yield from write(machine, task, fd, buf, pxd.probe_sector,
                         b"x" * sector_size)

    assert isinstance(run(machine, body).exception, BadSyscall)


def test_failing_replica_is_evicted_and_write_acked_from_survivors():
    machine, pxd, blockdev = make_machine(replicas=3)
    sector_size = machine.params.blk.sector_size
    payload = payload_for(2, sector_size)
    blockdev.replicas[0].online = False  # path loss before the write

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", len(payload))
        yield from write(machine, task, fd, buf, 4, payload)
        data = yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_READ,
                                       {"sector": 4, "nsectors": 2})
        return data

    proc = run(machine, body)
    assert proc.exception is None
    assert proc.value == payload            # read-your-writes held
    assert pxd.inservice == {1, 2}
    assert pxd.stats()["states"][0] == "evicted"
    assert pxd.stats()["fail_cnt"] == 1
    assert 4 in pxd._dirty[0] and 5 in pxd._dirty[0]
    assert machine.tracer.get_count("pxd.evictions") == 1
    assert machine.tracer.get_count("pxd.acked_writes") == 1
    assert pxd.fsm_violations() == [] and pxd.violations == []


def test_all_replicas_failing_surfaces_a_typed_error():
    machine, pxd, blockdev = make_machine(replicas=2)
    sector_size = machine.params.blk.sector_size
    for media in blockdev.replicas:
        media.online = False
    outcomes = []

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", 2 * sector_size)
        try:
            yield from write(machine, task, fd, buf, 0,
                             payload_for(0, sector_size))
        except MediaError:
            outcomes.append("typed")
        # the in-service set is now empty: the refusal is immediate
        try:
            yield from write(machine, task, fd, buf, 4,
                             payload_for(1, sector_size))
        except MediaError:
            outcomes.append("typed-empty")

    proc = run(machine, body)
    assert proc.exception is None
    assert outcomes == ["typed", "typed-empty"]
    assert pxd.inservice == set()
    assert machine.tracer.get_count("pxd.failed_writes") == 1
    assert pxd.fsm_violations() == []


def test_update_path_resyncs_divergence_and_readmits():
    machine, pxd, blockdev = make_machine(replicas=2)
    sector_size = machine.params.blk.sector_size
    a = payload_for(3, sector_size)
    b = payload_for(4, sector_size)

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", len(a))
        blockdev.replicas[1].online = False
        yield from write(machine, task, fd, buf, 0, a)   # evicts replica 1
        yield from write(machine, task, fd, buf, 8, b)   # bypasses replica 1
        rc = yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_UPDATE_PATH,
                                     {"replica": 1})
        return rc

    proc = run(machine, body)
    assert proc.exception is None
    assert proc.value == 1
    assert pxd.inservice == {0, 1}
    assert blockdev.replicas[1].peek(0, 2) == a
    assert blockdev.replicas[1].peek(8, 2) == b
    assert pxd._dirty == {}
    assert machine.tracer.get_count("pxd.resyncs") == 1
    assert machine.tracer.get_count("pxd.readmits") == 1
    report = pxd.resync_reports[-1]
    assert report["refused"] is False and report["diverged"] >= 2
    assert pxd.fsm_violations() == []


def test_update_path_validates_the_replica_index():
    machine, pxd, _ = make_machine(replicas=2)

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_UPDATE_PATH,
                                {"replica": 7})

    assert isinstance(run(machine, body).exception, BadSyscall)


def test_set_suspend_accepts_int_and_dict_forms():
    machine, pxd, _ = make_machine()

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_SET_SUSPEND, 1)
        first = (yield from task.syscall(
            "ioctl", fd, ioc.PXD_IOCTL_GET_STATS, None))["suspend"]
        yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_SET_SUSPEND,
                                {"suspend": 0})
        second = (yield from task.syscall(
            "ioctl", fd, ioc.PXD_IOCTL_GET_STATS, None))["suspend"]
        return first, second

    proc = run(machine, body)
    assert proc.exception is None
    assert proc.value == (1, 0)


def test_guard_probe_reattaches_resyncs_and_readmits():
    """With the guard plane installed, eviction is followed — without
    any administrative action — by breaker-admitted probe, resync and
    re-admission once the probe backoff elapses."""
    with planes(guard=GuardPolicy(failure_window=8, failure_threshold=1,
                                   probe_successes=1,
                                   probe_backoff=100 * USEC)):
        machine, pxd, blockdev = make_machine(replicas=2)
        assert machine.nodes[0].pxd_guard is not None
        sector_size = machine.params.blk.sector_size

        def body(task):
            fd = yield from task.syscall("open", "/dev/pxd/pxd0")
            buf = yield from task.syscall("mmap", 2 * sector_size)
            blockdev.replicas[1].online = False
            yield from write(machine, task, fd, buf, 0,
                             payload_for(5, sector_size))
            assert pxd.inservice == {0}
            # keep traffic flowing past the probe backoff so head
            # finishes kick the probe machinery
            for i in range(6):
                yield machine.sim.timeout(60 * USEC)
                yield from write(machine, task, fd, buf, 8 + 4 * i,
                                 payload_for(6 + i, sector_size))

        proc = run(machine, body)
        assert proc.exception is None
        assert pxd.inservice == {0, 1}
        assert machine.tracer.get_count("pxd.probes") >= 1
        assert machine.tracer.get_count("pxd.readmits") >= 1
        assert machine.tracer.get_count("pxd.resyncs") >= 1
        # the readmitted replica converged to the survivor
        data_sectors = pxd.data_sectors
        assert blockdev.replicas[1].peek(0, data_sectors) \
            == blockdev.replicas[0].peek(0, data_sectors)
        assert pxd.fsm_violations() == [] and pxd.violations == []
