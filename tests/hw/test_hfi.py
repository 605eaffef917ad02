"""Unit tests for the HFI device, SDMA engines, TIDs and the fabric."""

import pytest

from repro.errors import DriverError, ReproError
from repro.hw import Fabric, HFIDevice, Packet, SdmaDescriptor, SdmaRequestGroup
from repro.params import default_params
from repro.sim import Simulator
from repro.units import KiB


def make_pair():
    sim = Simulator()
    params = default_params()
    fabric = Fabric(sim, params.nic)
    a = HFIDevice(sim, params.nic, node_id=0)
    b = HFIDevice(sim, params.nic, node_id=1)
    fabric.attach(a)
    fabric.attach(b)
    # a trivial IRQ dispatcher that runs the completion inline
    for dev in (a, b):
        dev.irq_dispatcher = lambda grp: (
            grp.on_complete(grp) if grp.on_complete else None)
    return sim, params, fabric, a, b


def eager_packet(nbytes, ctxt, src=0, dst=1, tag=None):
    return Packet(kind="eager", src_node=src, dst_node=dst,
                  dst_ctxt=ctxt.ctxt_id, nbytes=nbytes, tag=tag)


def test_pio_send_delivers_after_wire_latency():
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("test")
    got = []
    ctxt.on_packet = lambda pkt: got.append((sim.now, pkt.nbytes))
    sim.run(until=sim.process(a.pio_send(eager_packet(4 * KiB, ctxt))))
    sim.run()
    assert len(got) == 1
    t, nbytes = got[0]
    expected = (params.nic.pio_overhead + 4 * KiB / params.nic.pio_bandwidth
                + params.nic.wire_latency)
    assert t == pytest.approx(expected, rel=1e-9)
    assert nbytes == 4 * KiB


def test_loopback_skips_wire_latency():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("self")
    got = []
    ctxt.on_packet = lambda pkt: got.append(sim.now)
    pkt = Packet(kind="eager", src_node=0, dst_node=0,
                 dst_ctxt=ctxt.ctxt_id, nbytes=KiB)
    sim.run(until=sim.process(a.pio_send(pkt)))
    assert got[0] == pytest.approx(
        params.nic.pio_overhead + KiB / params.nic.pio_bandwidth)


def test_sdma_completion_irq_and_delivery():
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("test")
    delivered, completed = [], []
    ctxt.on_packet = lambda pkt: delivered.append(sim.now)

    descs = [SdmaDescriptor(paddr=i * 4096, nbytes=4 * KiB) for i in range(16)]
    group = SdmaRequestGroup(
        descriptors=descs,
        packet=Packet(kind="eager", src_node=0, dst_node=1,
                      dst_ctxt=ctxt.ctxt_id, nbytes=64 * KiB),
        on_complete=lambda g: completed.append(sim.now))
    engine = a.pick_engine()
    sim.run(until=sim.process(engine.submit(group)))
    sim.run()
    assert len(delivered) == 1 and len(completed) == 1
    serialization = 16 * (params.nic.sdma_desc_overhead
                          + 4 * KiB / params.nic.link_bandwidth)
    assert completed[0] == pytest.approx(serialization, rel=1e-6)
    assert delivered[0] == pytest.approx(serialization + params.nic.wire_latency,
                                         rel=1e-6)


def test_sdma_descriptor_too_large_rejected():
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("test")
    group = SdmaRequestGroup(
        descriptors=[SdmaDescriptor(0, params.nic.sdma_max_request + 1)],
        packet=eager_packet(KiB, ctxt))
    proc = sim.process(a.pick_engine().submit(group))
    sim.run()
    assert isinstance(proc.exception, DriverError)


def test_empty_sdma_group_rejected():
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("test")
    group = SdmaRequestGroup(descriptors=[], packet=eager_packet(KiB, ctxt))
    proc = sim.process(a.pick_engine().submit(group))
    sim.run()
    assert isinstance(proc.exception, DriverError)


def test_ring_backpressure_blocks_submitter():
    """Submitting more descriptors than the ring holds must still complete
    (the engine drains and wakes the submitter)."""
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("test")
    n = params.nic.sdma_ring_size * 3
    group = SdmaRequestGroup(
        descriptors=[SdmaDescriptor(i * 4096, 4 * KiB) for i in range(n)],
        packet=eager_packet(n * 4 * KiB, ctxt))
    done = []
    group.on_complete = lambda g: done.append(sim.now)
    sim.run(until=sim.process(a.pick_engine().submit(group)))
    sim.run()
    assert len(done) == 1
    assert a.tracer.get_count("hfi.sdma_descs") == n


def test_engine_round_robin():
    sim, params, fabric, a, b = make_pair()
    picked = {a.pick_engine().index for _ in range(params.nic.sdma_engines)}
    assert picked == set(range(params.nic.sdma_engines))


def test_tid_program_and_unprogram():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    entries = a.program_tids(ctxt, [(0x1000, 8 * KiB), (0x10000, 4 * KiB)])
    assert len(entries) == 2
    assert a.tids_in_use == 2
    a.unprogram_tids([e.tid for e in entries])
    assert a.tids_in_use == 0


def test_tid_span_too_large_rejected():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    with pytest.raises(DriverError):
        a.program_tids(ctxt, [(0, params.nic.tid_max_span + 1)])


def test_rcv_array_exhaustion():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    spans = [(i * 4096, 4 * KiB) for i in range(params.nic.rcv_array_entries)]
    a.program_tids(ctxt, spans)
    with pytest.raises(DriverError):
        a.program_tids(ctxt, [(0, 4 * KiB)])


def test_unprogram_unknown_tid_rejected():
    sim, params, fabric, a, b = make_pair()
    with pytest.raises(DriverError):
        a.unprogram_tids([999])


def test_expected_packet_validates_tids():
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("rx")
    entries = b.program_tids(ctxt, [(0x1000, 8 * KiB)])
    got = []
    ctxt.on_packet = lambda pkt: got.append(pkt)
    pkt = Packet(kind="expected", src_node=0, dst_node=1,
                 dst_ctxt=ctxt.ctxt_id, nbytes=8 * KiB,
                 tids=(entries[0].tid,))
    b.receive(pkt)
    assert got and got[0].tids == (entries[0].tid,)
    bad = Packet(kind="expected", src_node=0, dst_node=1,
                 dst_ctxt=ctxt.ctxt_id, nbytes=KiB, tids=(4242,))
    with pytest.raises(DriverError):
        b.receive(bad)


def test_free_context_reclaims_tids():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    a.program_tids(ctxt, [(0x1000, 4 * KiB)])
    a.free_context(ctxt)
    assert a.tids_in_use == 0


def test_packets_without_handler_queue_up():
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("rx")
    b.receive(eager_packet(KiB, ctxt))
    assert len(ctxt.eager_backlog) == 1


def test_backlog_drains_in_order_when_handler_installed():
    """Early arrivals must reach the handler the moment it appears,
    not sit stranded in the backlog forever."""
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("rx")
    b.receive(eager_packet(KiB, ctxt))
    b.receive(eager_packet(2 * KiB, ctxt))
    got = []
    ctxt.on_packet = lambda pkt: got.append(pkt.nbytes)
    assert got == [KiB, 2 * KiB]
    assert not ctxt.eager_backlog
    b.receive(eager_packet(4 * KiB, ctxt))
    assert got == [KiB, 2 * KiB, 4 * KiB]


def test_free_context_with_inflight_sdma_group_raises():
    """Freeing a context while an SDMA group targeting it still sits in
    an engine ring must fail loudly instead of stranding the packets."""
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    group = SdmaRequestGroup(
        descriptors=[SdmaDescriptor(0, KiB)],
        packet=Packet(kind="eager", src_node=1, dst_node=0,
                      dst_ctxt=ctxt.ctxt_id, nbytes=KiB))
    a.engines[0]._ring.append((group.descriptors[0], group, True, None))
    with pytest.raises(DriverError) as excinfo:
        a.free_context(ctxt)
    assert "in flight" in str(excinfo.value)
    assert a.tracer.get_count("hfi.free_ctxt_inflight") == 1
    a.engines[0]._ring.clear()
    a.free_context(ctxt)  # quiesced: now succeeds


def test_fabric_rejects_unknown_node_and_double_attach():
    sim, params, fabric, a, b = make_pair()
    with pytest.raises(ReproError):
        fabric.transmit(Packet(kind="eager", src_node=0, dst_node=99,
                               dst_ctxt=0, nbytes=1))
    with pytest.raises(ReproError):
        fabric.attach(a)


def test_irq_without_dispatcher_is_an_error():
    sim = Simulator()
    params = default_params()
    dev = HFIDevice(sim, params.nic, node_id=0)
    group = SdmaRequestGroup(
        descriptors=[SdmaDescriptor(0, KiB)],
        packet=Packet(kind="eager", src_node=0, dst_node=0,
                      dst_ctxt=0, nbytes=KiB))
    with pytest.raises(ReproError):
        dev.raise_irq(group)


def test_rejected_tid_program_installs_nothing():
    """A bad span in the middle of a request must not leave the spans
    before it installed (nobody would own them) or advance the TIDs."""
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    first = a.program_tids(ctxt, [(0x1000, 4 * KiB)])[0].tid
    for bad in (0, params.nic.tid_max_span + 1):
        with pytest.raises(DriverError):
            a.program_tids(ctxt, [(0x2000, 4 * KiB), (0x3000, bad),
                                  (0x4000, 4 * KiB)])
        assert a.tids_in_use == 1
    assert a.program_tids(ctxt, [(0x5000, 4 * KiB)])[0].tid == first + 1


def test_rejected_tid_unprogram_removes_nothing():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    tids = [e.tid for e in a.program_tids(ctxt, [(0x1000, 4 * KiB),
                                                 (0x2000, 4 * KiB)])]
    for bad in ([tids[0], 999], [tids[0], tids[0]]):
        with pytest.raises(DriverError):
            a.unprogram_tids(bad)
        assert a.tids_in_use == 2
    a.unprogram_tids(tids)
    assert a.tids_in_use == 0
    assert a.program_tids(ctxt, [(0x5000, 4 * KiB)])[0].tid == tids[-1] + 1
