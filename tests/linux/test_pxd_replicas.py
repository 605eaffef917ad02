"""Property tests of the pxd replication contract (PR-8 satellite).

Across randomized interleavings of path loss, eviction and guard-driven
recovery, the invariants that make replicated storage worth having must
hold: every write resolves acked-intact or typed, every acked write is
byte-identical on every in-service replica, the in-service set is
bitwise convergent over the whole data region, and the replica FSM
never takes an illegal edge.  Divergence on an evicted replica (torn
write) must be detected and repaired on re-admission, and re-admission
without a healthy resync source must be refused typed."""

import random
from dataclasses import replace

import pytest

from repro.config import OSConfig, planes
from repro.errors import MediaError
from repro.experiments import build_machine
from repro.faults import FaultPlan, ScheduledFault
from repro.guard import GuardPolicy
from repro.linux.pxd import ioctls as ioc
from repro.params import default_params
from repro.sim import Event
from repro.units import USEC

NSECTORS = 2
STRIDE = 4
TRIAL_WRITES = 16

#: hair-trigger breakers with fast probes, so eviction and re-admission
#: both happen inside a short randomized trial
TRIAL_POLICY = GuardPolicy(failure_window=8, failure_threshold=1,
                           probe_successes=1, probe_backoff=80 * USEC)

TRIAL_CONFIGS = (OSConfig.LINUX, OSConfig.MCKERNEL_HFI)


def storage_params(replicas=3):
    params = default_params()
    return params.with_overrides(blk=replace(params.blk, replicas=replicas))


def run(machine, body):
    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    return proc


def write(machine, task, fd, buf, sector, payload):
    completion = Event(machine.sim)
    yield from task.syscall(
        "writev", fd,
        [{"sector": sector, "payload": payload, "completion": completion},
         (buf, len(payload))])
    yield completion


def assert_replica_invariants(machine, pxd, blockdev, acked):
    """The replication contract, checked at end of run."""
    for i, (sector, payload) in sorted(acked.items()):
        for r in sorted(pxd.inservice):
            assert blockdev.replicas[r].peek(sector, NSECTORS) == payload, \
                f"acked write {i} diverges on in-service replica {r}"
    ins = sorted(pxd.inservice)
    if len(ins) > 1:
        ref = blockdev.replicas[ins[0]].peek(0, pxd.data_sectors)
        for r in ins[1:]:
            assert blockdev.replicas[r].peek(0, pxd.data_sectors) == ref, \
                f"in-service replicas {ins[0]} and {r} are not bitwise " \
                f"identical over the data region"
    # the fast path's published copy of the in-service set
    assert pxd.fpext.get("inservice_mask", atomic=True) \
        == sum(1 << r for r in pxd.inservice)
    assert pxd.violations == []


@pytest.mark.parametrize("seed", range(6))
def test_random_path_loss_interleavings_preserve_the_contract(seed):
    """Randomized schedule of path-loss knocks against a live write
    stream, with the guard plane probing and re-admitting behind it."""
    rng = random.Random(seed)
    cfg = TRIAL_CONFIGS[seed % len(TRIAL_CONFIGS)]
    with planes(guard=TRIAL_POLICY):
        machine = build_machine(1, cfg, params=storage_params(3))
        pxd = machine.nodes[0].pxd
        blockdev = machine.nodes[0].node.blockdev
        sector_size = machine.params.blk.sector_size
        outcomes = {}
        acked = {}

        def body(task):
            fd = yield from task.syscall("open", "/dev/pxd/pxd0")
            buf = yield from task.syscall("mmap", NSECTORS * sector_size)
            for i in range(TRIAL_WRITES):
                if rng.random() < 0.3:
                    blockdev.replicas[rng.randrange(3)].online = False
                yield machine.sim.timeout(40 * USEC)
                sector = i * STRIDE
                payload = bytes([(31 * seed + 7 * i + 1) & 0xFF]) \
                    * (NSECTORS * sector_size)
                try:
                    yield from write(machine, task, fd, buf, sector,
                                     payload)
                except MediaError:
                    outcomes[i] = "typed"
                    continue
                acked[i] = (sector, payload)
                try:
                    data = yield from task.syscall(
                        "ioctl", fd, ioc.PXD_IOCTL_READ,
                        {"sector": sector, "nsectors": NSECTORS})
                except MediaError:
                    outcomes[i] = "acked-read-typed"
                    continue
                outcomes[i] = "acked" if data == payload else "torn-read"

        proc = run(machine, body)
        assert proc.exception is None
        for i in range(TRIAL_WRITES):
            verdict = outcomes.get(i, "hung")
            assert verdict in ("acked", "typed", "acked-read-typed"), \
                f"seed {seed}: write {i} ended {verdict!r} — neither " \
                f"intact nor typed"
        assert_replica_invariants(machine, pxd, blockdev, acked)


def test_torn_write_divergence_is_detected_and_resynced_on_readmit():
    """A torn write leaves divergent media on the evicted replica; the
    UPDATE_PATH resync must find the divergence and repair it before
    re-admission."""
    plan = FaultPlan.placed(ScheduledFault("media.torn_write", 0))
    with planes(faults=plan):
        machine = build_machine(1, OSConfig.LINUX,
                                params=storage_params(2))
        pxd = machine.nodes[0].pxd
        blockdev = machine.nodes[0].node.blockdev
        sector_size = machine.params.blk.sector_size
        payload = b"\xC3" * (NSECTORS * sector_size)

        def body(task):
            fd = yield from task.syscall("open", "/dev/pxd/pxd0")
            buf = yield from task.syscall("mmap", len(payload))
            yield from write(machine, task, fd, buf, 0, payload)
            evicted = ({0, 1} - pxd.inservice).pop()
            rc = yield from task.syscall(
                "ioctl", fd, ioc.PXD_IOCTL_UPDATE_PATH,
                {"replica": evicted})
            return evicted, rc

        proc = run(machine, body)
        assert proc.exception is None
        evicted, rc = proc.value
        assert rc == 1
        # the tear was real: half the payload landed before the fault,
        # and the resync found at least that divergent sector
        report = pxd.resync_reports[-1]
        assert report["refused"] is False
        assert report["diverged"] >= 1
        survivor = ({0, 1} - {evicted}).pop()
        assert blockdev.replicas[evicted].peek(0, NSECTORS) == payload
        assert blockdev.replicas[survivor].peek(0, NSECTORS) == payload
        assert pxd.inservice == {0, 1}
        assert pxd.violations == []


def test_readmit_without_healthy_source_is_refused_typed():
    """No guard plane, every replica evicted: UPDATE_PATH on a
    non-authoritative replica is a typed refusal (there is nothing
    trustworthy to resync from); the last replica standing re-admits
    as the data authority, after which the refused replica can follow."""
    machine = build_machine(1, OSConfig.LINUX, params=storage_params(2))
    pxd = machine.nodes[0].pxd
    blockdev = machine.nodes[0].node.blockdev
    sector_size = machine.params.blk.sector_size
    refusals = []

    def body(task):
        fd = yield from task.syscall("open", "/dev/pxd/pxd0")
        buf = yield from task.syscall("mmap", NSECTORS * sector_size)
        for media in blockdev.replicas:
            media.online = False
        try:
            yield from write(machine, task, fd, buf, 0,
                             b"\x11" * (NSECTORS * sector_size))
        except MediaError:
            pass
        assert pxd.inservice == set()
        authority = pxd._last_evicted
        other = ({0, 1} - {authority}).pop()
        try:
            yield from task.syscall("ioctl", fd, ioc.PXD_IOCTL_UPDATE_PATH,
                                    {"replica": other})
        except MediaError as exc:
            refusals.append(str(exc))
        rc_auth = yield from task.syscall(
            "ioctl", fd, ioc.PXD_IOCTL_UPDATE_PATH, {"replica": authority})
        rc_other = yield from task.syscall(
            "ioctl", fd, ioc.PXD_IOCTL_UPDATE_PATH, {"replica": other})
        return rc_auth, rc_other

    proc = run(machine, body)
    assert proc.exception is None
    assert len(refusals) == 1 and "no healthy source" in refusals[0]
    assert proc.value == (1, 1)
    assert pxd.inservice == {0, 1}
    assert machine.tracer.get_count("pxd.readmit_refused") == 1
    assert machine.tracer.get_count("pxd.authority_readmits") == 1
    refused = [r for r in pxd.resync_reports if r.get("refused")]
    assert refused and refused[0]["reason"] == "no healthy source"
    assert blockdev.replicas[0].peek(0, pxd.data_sectors) \
        == blockdev.replicas[1].peek(0, pxd.data_sectors)
    assert pxd.violations == []
