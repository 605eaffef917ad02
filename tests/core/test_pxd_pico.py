"""Tests for the pxd block-device PicoDriver: the replicated-write fast
path, its claim policy, the attach-time porting checklist and the
suspend fallback seam to the unmodified Linux driver."""

from dataclasses import replace

import pytest

from repro.config import OSConfig
from repro.errors import BadSyscall, DriverError, LayoutError, MediaError
from repro.experiments import build_machine
from repro.linux.pxd import ioctls as ioc
from repro.linux.pxd.debuginfo import NEXT_VERSION, build_module
from repro.params import default_params
from repro.sim import Event


def storage_params(replicas=3):
    params = default_params()
    return params.with_overrides(blk=replace(params.blk, replicas=replicas))


def make_machine(replicas=3, cfg=OSConfig.MCKERNEL_HFI):
    machine = build_machine(1, cfg, params=storage_params(replicas))
    mn = machine.nodes[0]
    return machine, mn.pxd, mn.pxd_pico, mn.node.blockdev


def run(machine, body):
    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    return proc


def payload_for(i, sector_size, nsectors=2):
    return bytes([(17 * i + 9) & 0xFF]) * (nsectors * sector_size)


def write(machine, task, fd, buf, sector, payload):
    completion = Event(machine.sim)
    yield from task.syscall(
        "writev", fd,
        [{"sector": sector, "payload": payload, "completion": completion},
         (buf, len(payload))])
    yield completion


def test_fast_write_read_roundtrip_mirrors_all_replicas():
    machine, pxd, pico, blockdev = make_machine()
    sector_size = machine.params.blk.sector_size
    payload = payload_for(0, sector_size)

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", len(payload))
        yield from write(machine, task, fd, buf, 12, payload)
        data = yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_READ,
                                       {"sector": 12, "nsectors": 2})
        return data

    proc = run(machine, body)
    assert proc.exception is None
    assert proc.value == payload
    for media in blockdev.replicas:
        assert media.peek(12, 2) == payload
    # both data ops ran on the fast path, not through offload
    assert machine.tracer.get_count("pico.pxd_writes") == 1
    assert machine.tracer.get_count("pico.pxd_reads") == 1
    assert machine.tracer.get_count("pico.fast.writev") == 1
    assert machine.tracer.get_count("pxd.writes") == 0
    # the ack policy is shared: the Linux driver counted the ack
    assert machine.tracer.get_count("pxd.acked_writes") == 1


def test_claims_only_the_data_path():
    machine, pxd, pico, _ = make_machine()
    assert pico.claims("writev", (3, []))
    assert pico.claims("ioctl", (3, ioc.PXD_IOCTL_READ, None))
    assert not pico.claims("ioctl", (3, ioc.PXD_IOCTL_GET_STATS, None))
    assert not pico.claims("ioctl", (3, ioc.PXD_IOCTL_UPDATE_PATH, None))
    assert not pico.claims("close", (3,))


def test_admin_ioctls_offload_to_the_linux_driver():
    machine, pxd, pico, _ = make_machine()

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        stats = yield from task.syscall("ioctl", fd,
                                        ioc.PXD_IOCTL_GET_STATS, None)
        return stats

    proc = run(machine, body)
    assert proc.exception is None
    assert proc.value["inservice"] == [0, 1, 2]
    assert machine.tracer.get_count("pico.offload.ioctl") >= 1


def test_suspend_falls_back_to_the_slow_path_and_resumes():
    machine, pxd, pico, blockdev = make_machine()
    sector_size = machine.params.blk.sector_size

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", 2 * sector_size)
        yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_SET_SUSPEND, 1)
        yield from write(machine, task, fd, buf, 0,
                         payload_for(1, sector_size))
        yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_SET_SUSPEND, 0)
        yield from write(machine, task, fd, buf, 4,
                         payload_for(2, sector_size))

    proc = run(machine, body)
    assert proc.exception is None
    # suspended write: fast path refused, dispatcher fell back to Linux
    assert machine.tracer.get_count("pico.pxd_suspended") == 1
    assert machine.tracer.get_count("pico.fallbacks") == 1
    assert machine.tracer.get_count("pxd.writes") == 1
    # resumed write went fast again
    assert machine.tracer.get_count("pico.pxd_writes") == 1
    assert machine.tracer.get_count("pxd.acked_writes") == 2


def test_fast_path_observes_linux_side_eviction():
    """The fast path's target set comes from the shared in-service mask
    the Linux completion path maintains — an evicted replica stops
    receiving fast-path clones immediately."""
    machine, pxd, pico, blockdev = make_machine(replicas=3)
    sector_size = machine.params.blk.sector_size

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", 2 * sector_size)
        blockdev.replicas[0].online = False
        yield from write(machine, task, fd, buf, 0,
                         payload_for(3, sector_size))
        before = machine.tracer.get_count("blk.r0.submits")
        yield from write(machine, task, fd, buf, 4,
                         payload_for(4, sector_size))
        return before

    proc = run(machine, body)
    assert proc.exception is None
    assert pxd.inservice == {1, 2}
    # the second write never targeted the evicted replica
    assert machine.tracer.get_count("blk.r0.submits") == proc.value


def test_all_replicas_failing_fast_write_is_typed():
    machine, pxd, pico, blockdev = make_machine(replicas=2)
    sector_size = machine.params.blk.sector_size
    outcomes = []

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", 2 * sector_size)
        for media in blockdev.replicas:
            media.online = False
        try:
            yield from write(machine, task, fd, buf, 0,
                             payload_for(5, sector_size))
        except MediaError:
            outcomes.append("typed")
        # with the set empty the fast path defers; the slow path owns
        # the typed refusal
        try:
            yield from write(machine, task, fd, buf, 4,
                             payload_for(6, sector_size))
        except MediaError:
            outcomes.append("typed-empty")

    proc = run(machine, body)
    assert proc.exception is None
    assert outcomes == ["typed", "typed-empty"]
    assert machine.tracer.get_count("pico.pxd_no_replicas") == 1
    assert pxd.violations == []


def test_fast_read_range_checked_against_the_data_region():
    machine, pxd, pico, _ = make_machine()

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_READ,
                                {"sector": pxd.probe_sector, "nsectors": 1})

    assert isinstance(run(machine, body).exception, BadSyscall)


def test_attach_requires_unified_address_space():
    from repro.core.pxd_pico import PxdPicoDriver
    machine = build_machine(1, OSConfig.MCKERNEL,  # original layout
                            params=storage_params())
    mn = machine.nodes[0]
    assert mn.pxd_pico is None
    with pytest.raises(LayoutError):
        mn.mckernel.register_picodriver(PxdPicoDriver(mn.pxd))


def test_attach_requires_matching_driver_version():
    from repro.core.pxd_pico import PxdPicoDriver
    machine = build_machine(1, OSConfig.MCKERNEL_HFI,
                            params=storage_params())
    mn = machine.nodes[0]
    mn.mckernel.pico.unregister(mn.pxd.device_path)
    pico = PxdPicoDriver(mn.pxd)
    pico.module = build_module(NEXT_VERSION)   # stale extraction source
    with pytest.raises(DriverError, match="re-run dwarf-extract-struct"):
        mn.mckernel.register_picodriver(pico)
