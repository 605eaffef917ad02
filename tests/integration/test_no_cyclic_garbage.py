"""Finished work frees itself: traffic leaves nothing for the cycle
collector.

Every process, request and completion the DES hot path makes for one
message or one write must be freed by reference counting at its last
use, not kept until CPython's cyclic collector finds it.  Each test
builds its machine, keeps it alive (the machine's own object graph is
not per-message work), runs traffic with ``gc.DEBUG_SAVEALL`` set and
requires the collector to find no garbage.
"""

import gc
from collections import Counter

import pytest

from repro.apps.imb import PingPong
from repro.config import ALL_CONFIGS, planes
from repro.experiments import build_machine, chaos, storage
from repro.faults import FaultPlan
from repro.guard import GuardPolicy
from repro.units import KiB

#: one eager (PIO) and one rendezvous (TID + SDMA) message size
PP_SIZES = (4 * KiB, 256 * KiB)


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
