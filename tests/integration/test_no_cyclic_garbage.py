"""Finished work frees itself: traffic leaves nothing for the cycle
collector.

Every process, request and completion the DES hot path makes for one
message or one write must be freed by reference counting at its last
use, not kept until CPython's cyclic collector finds it.  Each test
builds its machine, keeps it alive (the machine's own object graph is
not per-message work), runs traffic with ``gc.DEBUG_SAVEALL`` set and
requires the collector to find no garbage.

A dropped machine is the exception: its own object graph has cycles and
only the collector frees it.  What it leaves is bounded instead, so the
rendezvous path keeps its per-page state in columns rather than in
objects the collector has to walk.
"""

import gc
from collections import Counter

import pytest

from repro.apps.imb import PingPong
from repro.config import ALL_CONFIGS, OSConfig, planes
from repro.errors import BadSyscall
from repro.experiments import build_machine, chaos, storage
from repro.faults import FaultPlan
from repro.guard import GuardPolicy
from repro.units import KiB, MiB

#: one eager (PIO) and one rendezvous (TID + SDMA) message size
PP_SIZES = (4 * KiB, 256 * KiB)
#: the rendezvous ping-pong sizes of Figure 4's regime
RNDV_SIZES = (256 * KiB, 1 * MiB, 4 * MiB)
#: objects a dropped 2-node Linux machine may leave for the collector
#: after the rendezvous ping-pong (839 measured; 8946 when its page
#: tables held one ``Mapping`` per page and its free lists one two-item
#: list per hole)
DROPPED_LINUX_BOUND = 1500


def cyclic_garbage(run) -> list:
    """``run()``, then the objects it made that only the cycle collector
    could free, as ``(type name, count)`` pairs, most common first."""
    gc.collect()
    gc.freeze()     # what exists now, the machine included, is not counted
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage).most_common()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_pingpong_leaves_no_cyclic_garbage(config):
    machine = build_machine(2, config)
    out = {}

    def run():
        out.update(PingPong(machine, repetitions=4, warmup=1).run(PP_SIZES))

    assert cyclic_garbage(run) == []
    assert sorted(out) == list(PP_SIZES)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_message_train_leaves_no_cyclic_garbage(config):
    """At fault rate 0 the reliability protocol runs (ACKs, watchdogs)
    and every message is delivered."""
    sizes = list(chaos.MESSAGE_SIZES) * 4
    with planes(faults=FaultPlan.uniform(0.0)):
        machine = build_machine(2, config)
        trains = []

        def run():
            trains.append(chaos.MessageTrain(machine, "gc", sizes))
            machine.sim.run()

        assert cyclic_garbage(run) == []
    assert trains[0].tally(0, len(sizes))[:2] == (len(sizes), 0)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_refused_offload_leaves_no_cyclic_garbage(config):
    """A syscall Linux refuses fails typed.  On McKernel it crosses IKC,
    and the error's traceback holds the channel's frames: neither may
    keep the completion or the error in a local."""
    machine = build_machine(1, config)
    task = machine.spawn_rank(0, 0)
    refused = []

    def body():
        try:
            yield from task.syscall("no_such_call", 1)
        except BadSyscall:
            refused.append(True)

    def run():
        machine.sim.run(until=machine.sim.process(body()))

    assert cyclic_garbage(run) == []
    assert refused == [True]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_faulty_message_train_leaves_no_cyclic_garbage(config):
    """A chaos train at fault rate 0.01: the operations that fail along
    the way (on McKernel, a raced ``TID_UPDATE`` offload) free
    themselves too."""
    sizes = chaos._regime_sizes(60)
    with planes(faults=FaultPlan.uniform(0.01)):
        machine = build_machine(2, config, params=chaos._chaos_params())
        trains = []

        def run():
            trains.append(chaos.MessageTrain(machine, "gc", sizes))
            machine.sim.run()

        assert cyclic_garbage(run) == []
    assert sum(trains[0].tally(0, len(sizes))[:2]) == len(sizes)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_write_train_leaves_no_cyclic_garbage(config):
    """Replicated pxd writes, each read back, under the storage sweep's
    guard policy at fault rate 0."""
    n_writes = 20
    with planes(faults=FaultPlan.uniform(0.0),
                guard=GuardPolicy(**storage.STORAGE_POLICY_KW)):
        machine = build_machine(1, config,
                                params=storage._storage_params())
        trains = []

        def run():
            trains.append(storage.WriteTrain(machine, n_writes))
            machine.sim.run()

        assert cyclic_garbage(run) == []
    assert trains[0].tally(0, n_writes)[:2] == (n_writes, 0)


def test_dropped_linux_machine_leaves_bounded_cyclic_garbage():
    """A 2-node Linux machine that ran the rendezvous ping-pong (256 KiB
    to 4 MiB, 5 repetitions and a warm-up: two scattered 8 MiB buffers)
    leaves at most ``DROPPED_LINUX_BOUND`` objects for the collector
    when dropped: its page tables and frame free lists are columns of
    integers, which the collector does not track."""
    gc.collect()
    machine = build_machine(2, OSConfig.LINUX)
    PingPong(machine, repetitions=5, warmup=1).run(RNDV_SIZES)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del machine
        gc.collect()
        left = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert sum(left.values()) <= DROPPED_LINUX_BOUND, left.most_common(5)
    assert "Mapping" not in left
