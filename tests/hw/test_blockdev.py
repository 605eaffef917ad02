"""Unit tests for the pxd block device: replica medias, service queues,
IRQ delivery and the storage fault points (drawn deterministically via
placed plans)."""

from dataclasses import replace

import pytest

from repro.errors import DriverError, MediaError, ReproError
from repro.faults import FaultInjector, FaultPlan, ScheduledFault
from repro.hw.blockdev import BlockDevice, BlockIo
from repro.params import default_params
from repro.sim import Simulator


def make_dev(replicas=2, plan=None):
    sim = Simulator()
    params = replace(default_params().blk, replicas=replicas)
    dev = BlockDevice(sim, params, node_id=0)
    done = []
    dev.irq_dispatcher = done.append
    if plan is not None:
        dev.injector = FaultInjector(plan, None, tracer=dev.tracer)
    return sim, params, dev, done


def write_io(sector_size, replica=0, sector=0, nsectors=1, fill=0x5A):
    return BlockIo(op="write", replica=replica, sector=sector,
                   nsectors=nsectors,
                   payload=bytes([fill]) * (nsectors * sector_size))


def test_zero_replicas_refused():
    sim = Simulator()
    params = default_params().blk
    assert params.replicas == 0  # figure machines grow no block device
    with pytest.raises(ReproError):
        BlockDevice(sim, params, node_id=0)


def test_write_lands_and_completes_after_media_time():
    sim, params, dev, done = make_dev()
    io = write_io(params.sector_size, nsectors=2)
    dev.submit(io)
    sim.run()
    assert done == [io] and io.status is None
    assert dev.replicas[0].peek(0, 2) == io.payload
    assert dev.replicas[1].peek(0, 2) == bytes(2 * params.sector_size)
    expected = params.media_latency + len(io.payload) / params.media_bandwidth
    assert sim.now == pytest.approx(expected)


def test_read_returns_media_bytes():
    sim, params, dev, done = make_dev()
    dev.replicas[1].poke(4, b"\xAB" * params.sector_size)
    io = BlockIo(op="read", replica=1, sector=4, nsectors=1)
    dev.submit(io)
    sim.run()
    assert io.status is None
    assert io.data == b"\xAB" * params.sector_size


def test_queue_serializes_per_replica_but_replicas_drain_in_parallel():
    sim, params, dev, done = make_dev()
    for r in (0, 0, 1):
        dev.submit(write_io(params.sector_size, replica=r, sector=r))
    sim.run()
    per_io = params.media_latency + params.sector_size / params.media_bandwidth
    # replica 0 served two IOs back to back; replica 1 one in parallel
    assert sim.now == pytest.approx(2 * per_io)
    assert len(done) == 3


def test_bad_sector_range_rejected_at_submit():
    sim, params, dev, done = make_dev()
    with pytest.raises(DriverError):
        dev.submit(BlockIo(op="read", replica=0, sector=params.sectors,
                           nsectors=1))
    with pytest.raises(DriverError):
        dev.submit(BlockIo(op="read", replica=0, sector=0, nsectors=0))
    with pytest.raises(DriverError):
        dev.submit(write_io(params.sector_size, replica=5))
    with pytest.raises(DriverError):
        dev.submit(BlockIo(op="trim", replica=0, sector=0, nsectors=1))


def test_short_write_payload_rejected():
    sim, params, dev, done = make_dev()
    with pytest.raises(DriverError):
        dev.submit(BlockIo(op="write", replica=0, sector=0, nsectors=2,
                           payload=b"x" * params.sector_size))


def test_irq_without_dispatcher_is_a_wiring_error():
    sim, params, dev, done = make_dev()
    dev.irq_dispatcher = None
    dev.submit(write_io(params.sector_size))
    sim.run()
    assert isinstance(dev._procs[0].exception, ReproError)


def test_offline_path_fails_io_typed_until_reattach():
    sim, params, dev, done = make_dev()
    dev.replicas[0].online = False
    io = write_io(params.sector_size)
    dev.submit(io)
    sim.run()
    assert isinstance(io.status, MediaError) and io.status.replica == 0
    assert dev.replicas[0].peek(0, 1) == bytes(params.sector_size)
    dev.replicas[0].reattach()
    retry = write_io(params.sector_size)
    dev.submit(retry)
    sim.run()
    assert retry.status is None


def test_path_loss_fault_knocks_the_replica_offline():
    plan = FaultPlan.placed(ScheduledFault("pxd.path_loss", 0))
    sim, params, dev, done = make_dev(plan=plan)
    io = write_io(params.sector_size)
    dev.submit(io)
    sim.run()
    assert not dev.replicas[0].online
    assert isinstance(io.status, MediaError)
    assert dev.tracer.get_count("blk.path_loss") == 1


def test_torn_write_lands_a_prefix_and_fails_typed():
    plan = FaultPlan.placed(ScheduledFault("media.torn_write", 0))
    sim, params, dev, done = make_dev(plan=plan)
    io = write_io(params.sector_size, nsectors=2, fill=0x77)
    dev.submit(io)
    sim.run()
    assert isinstance(io.status, MediaError)
    got = dev.replicas[0].peek(0, 2)
    torn = len(io.payload) // 2
    assert got[:torn] == io.payload[:torn]          # the tear landed
    assert got[torn:] == bytes(len(got) - torn)      # the rest did not


def test_write_error_leaves_media_untouched():
    plan = FaultPlan.placed(ScheduledFault("media.write_error", 0))
    sim, params, dev, done = make_dev(plan=plan)
    io = write_io(params.sector_size)
    dev.submit(io)
    sim.run()
    assert isinstance(io.status, MediaError)
    assert dev.replicas[0].peek(0, 1) == bytes(params.sector_size)


def test_read_error_is_typed():
    plan = FaultPlan.placed(ScheduledFault("media.read_error", 0))
    sim, params, dev, done = make_dev(plan=plan)
    io = BlockIo(op="read", replica=0, sector=0, nsectors=1)
    dev.submit(io)
    sim.run()
    assert isinstance(io.status, MediaError)
    assert io.data is None


def test_lost_irq_is_redelivered_by_the_watchdog():
    plan = FaultPlan.placed(ScheduledFault("blk.irq_lost", 0))
    sim, params, dev, done = make_dev(plan=plan)
    io = write_io(params.sector_size)
    dev.submit(io)
    sim.run()
    # the write landed on media; only the completion was delayed
    assert io.status is None and done == [io]
    service = params.media_latency \
        + len(io.payload) / params.media_bandwidth
    assert sim.now == pytest.approx(
        service + plan.irq_recovery_timeout)
    assert dev.tracer.get_count("blk.irq_recovered") == 1
