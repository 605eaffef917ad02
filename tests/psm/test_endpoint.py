"""PSM endpoint unit tests: protocol selection, error paths, progress."""

import pytest

from repro.config import OSConfig
from repro.errors import ReproError
from repro.experiments import build_machine
from repro.psm import Endpoint, TagMatcher
from repro.units import KiB, MiB


def make_pair(cfg=OSConfig.LINUX):
    machine = build_machine(2, cfg)
    sim = machine.sim
    t0, t1 = machine.spawn_rank(0, 0, 0), machine.spawn_rank(1, 0, 1)
    ep0 = Endpoint(sim, machine.params, machine.nodes[0].node.hfi, t0,
                   tracer=machine.tracer)
    ep1 = Endpoint(sim, machine.params, machine.nodes[1].node.hfi, t1,
                   tracer=machine.tracer)
    return machine, (t0, ep0), (t1, ep1)


def open_both(machine, a, b):
    (t0, ep0), (t1, ep1) = a, b
    bufs = {}

    def opener(task, ep, key):
        yield from ep.open()
        bufs[key] = yield from task.syscall("mmap", 8 * MiB)

    p0 = machine.sim.process(opener(t0, ep0, 0))
    p1 = machine.sim.process(opener(t1, ep1, 1))
    machine.sim.run(until=p0)
    machine.sim.run(until=p1)
    return bufs


def test_send_before_open_rejected():
    machine, a, b = make_pair()

    def body():
        yield from a[1].mq_isend((1, 0), "t", 0, 1 * KiB)

    proc = machine.sim.process(body())
    machine.sim.run()
    assert isinstance(proc.exception, ReproError)


def test_protocol_selection_by_size():
    machine, a, b = make_pair()
    bufs = open_both(machine, a, b)
    (t0, ep0), (t1, ep1) = a, b
    params = machine.params

    def body():
        req1 = ep1.mq_irecv(TagMatcher(tag="pio"), (bufs[1], 8 * MiB))
        req2 = ep1.mq_irecv(TagMatcher(tag="eager"), (bufs[1], 8 * MiB))
        req3 = ep1.mq_irecv(TagMatcher(tag="exp"), (bufs[1], 8 * MiB))
        yield from ep0.mq_send(ep1.addr, "pio", bufs[0], 8 * KiB)
        yield from ep0.mq_send(ep1.addr, "eager", bufs[0], 128 * KiB)
        yield from ep0.mq_send(ep1.addr, "exp", bufs[0], 1 * MiB)
        yield req3.event

    machine.sim.run(until=machine.sim.process(body()))
    machine.sim.run()
    assert machine.tracer.get_count("psm.eager_sends") == 1
    assert machine.tracer.get_count("psm.eager_sdma_sends") == 1
    assert machine.tracer.get_count("psm.rndv_sends") == 1


def test_rendezvous_without_posted_buffer_fails():
    machine, a, b = make_pair()
    bufs = open_both(machine, a, b)
    (t0, ep0), (t1, ep1) = a, b

    def sender():
        yield from ep0.mq_isend(ep1.addr, "nobuf", bufs[0], 1 * MiB)

    machine.sim.process(sender())
    machine.sim.run()
    # RTS parked on the unexpected queue; posting without a buffer raises
    with pytest.raises(ReproError, match="buffer"):
        ep1.mq_irecv(TagMatcher(tag="nobuf"), None)


def test_rendezvous_with_too_small_buffer_fails():
    machine, a, b = make_pair()
    bufs = open_both(machine, a, b)
    (t0, ep0), (t1, ep1) = a, b

    def sender():
        yield from ep0.mq_isend(ep1.addr, "big", bufs[0], 2 * MiB)

    machine.sim.process(sender())
    machine.sim.run()
    with pytest.raises(ReproError, match="too small"):
        ep1.mq_irecv(TagMatcher(tag="big"), (bufs[1], 1 * MiB))


def test_unexpected_eager_delivered_on_late_post():
    machine, a, b = make_pair()
    bufs = open_both(machine, a, b)
    (t0, ep0), (t1, ep1) = a, b

    def sender():
        yield from ep0.mq_send(ep1.addr, "early", bufs[0], 16 * KiB,
                               payload="surprise")

    machine.sim.run(until=machine.sim.process(sender()))
    machine.sim.run()
    assert machine.tracer.get_count("psm.unexpected") == 1
    req = ep1.mq_irecv(TagMatcher(tag="early"), (bufs[1], 8 * MiB))
    machine.sim.run()
    assert req.done and req.payload == "surprise"


def test_source_matching_with_wildcards():
    machine, a, b = make_pair()
    bufs = open_both(machine, a, b)
    (t0, ep0), (t1, ep1) = a, b

    def sender():
        yield from ep0.mq_send(ep1.addr, "tagged", bufs[0], 4 * KiB,
                               payload="hello")

    wrong = ep1.mq_irecv(TagMatcher(source=(9, 9), tag="tagged"))
    anysrc = ep1.mq_irecv(TagMatcher(tag="tagged"))
    machine.sim.run(until=machine.sim.process(sender()))
    machine.sim.run()
    assert not wrong.done
    assert anysrc.done and anysrc.payload == "hello"


def test_close_requires_open():
    machine, a, b = make_pair()

    def body():
        yield from a[1].close()

    proc = machine.sim.process(body())
    machine.sim.run()
    assert isinstance(proc.exception, ReproError)


def test_progress_workers_drain_cleanly():
    machine, a, b = make_pair(OSConfig.MCKERNEL_HFI)
    bufs = open_both(machine, a, b)
    (t0, ep0), (t1, ep1) = a, b

    def body():
        req = ep1.mq_irecv(TagMatcher(tag="x"), (bufs[1], 8 * MiB))
        yield from ep0.mq_send(ep1.addr, "x", bufs[0], 4 * MiB)
        yield req.event

    machine.sim.run(until=machine.sim.process(body()))
    machine.sim.run()
    assert ep1.rx.idle and ep0.tx.idle
    assert ep1.rx.failed == 0
    assert not ep0._send_flows and not ep1._recv_flows
