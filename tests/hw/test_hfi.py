"""Unit tests for the HFI device, SDMA engines, TIDs and the fabric."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DriverError, ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.hw import (DescriptorChain, Fabric, HFIDevice, Packet,
                      SdmaDescriptor, SdmaRequestGroup, TidEntry)
from repro.params import default_params
from repro.sim import Simulator
from repro.units import KiB, PAGE_SIZE

from .reference import PerEntryRcvArray


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
    tids = a.program_tids(ctxt, [(0x1000, 8 * KiB), (0x10000, 4 * KiB)])
    assert list(tids) == [0, 1]
    assert a.tids_in_use == 2
    assert a.tid_entry(tids[1]) == TidEntry(1, ctxt.ctxt_id, 0x10000, 4 * KiB)
    a.unprogram_tids(ctxt, list(tids))
    assert a.tids_in_use == 0
    with pytest.raises(DriverError, match="unknown TID 1"):
        a.tid_entry(1)


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
        a.unprogram_tids(a.alloc_context("rx"), [999])


def test_expected_packet_validates_tids():
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("rx")
    tids = b.program_tids(ctxt, [(0x1000, 8 * KiB)])
    got = []
    ctxt.on_packet = lambda pkt: got.append(pkt)
    pkt = Packet(kind="expected", src_node=0, dst_node=1,
                 dst_ctxt=ctxt.ctxt_id, nbytes=8 * KiB,
                 tids=(tids[0],))
    b.receive(pkt)
    assert got and got[0].tids == (tids[0],)
    # the first unknown TID in packet order is the one named
    bad = Packet(kind="expected", src_node=0, dst_node=1,
                 dst_ctxt=ctxt.ctxt_id, nbytes=KiB,
                 tids=(tids[0], 4242, 17))
    with pytest.raises(DriverError, match="unknown TID 4242"):
        b.receive(bad)
    assert len(got) == 1


def test_free_context_reclaims_tids():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    a.program_tids(ctxt, [(0x1000, 4 * KiB)])
    a.free_context(ctxt)
    assert a.tids_in_use == 0


def test_expected_packet_to_a_freed_context_is_a_stale_tid():
    """A freed context's TIDs go with it: under fault injection a late
    expected packet naming them is dropped as a stale TID, not as a
    packet for a dead context; one naming no TID is the latter."""
    sim, params, fabric, a, b = make_pair()
    b.injector = FaultInjector(FaultPlan(), None)
    ctxt = b.alloc_context("rx")
    tids = b.program_tids(ctxt, [(0x1000, 8 * KiB)])
    b.free_context(ctxt)
    for window in (tids, ()):
        b.receive(Packet(kind="expected", src_node=0, dst_node=1,
                         dst_ctxt=ctxt.ctxt_id, nbytes=8 * KiB,
                         tids=window))
    assert b.tracer.counters.get("hfi.rx_stale_tid") == 1
    assert b.tracer.counters.get("hfi.rx_dead_ctxt") == 1


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
    delivered = []
    ctxt.on_packet = delivered.append
    a.error_dispatcher = lambda engine, reason: None
    engine = a.engines[0]
    # a halted engine keeps the group on its ring: 3 slots, one group
    engine.halt("test")
    group = SdmaRequestGroup(
        descriptors=[SdmaDescriptor(i * KiB, KiB) for i in range(3)],
        packet=Packet(kind="eager", src_node=0, dst_node=0,
                      dst_ctxt=ctxt.ctxt_id, nbytes=3 * KiB))
    sim.run(until=sim.process(engine.submit(group)))
    assert engine.free_slots == params.nic.sdma_ring_size - 3
    with pytest.raises(DriverError, match="with 1 SDMA group"):
        a.free_context(ctxt)
    assert a.tracer.get_count("hfi.free_ctxt_inflight") == 1
    engine.restart()
    sim.run()
    assert len(delivered) == 1 and engine.free_slots == engine.ring_size
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


def test_engine_without_irq_dispatcher_fails_the_run():
    """The engine's drain loop is detached: the typed error of an IRQ
    with no dispatcher propagates out of ``run`` instead of killing the
    engine silently."""
    sim, params, fabric, a, b = make_pair()
    a.irq_dispatcher = None
    ctxt = b.alloc_context("test")
    ctxt.on_packet = lambda pkt: None
    group = SdmaRequestGroup(descriptors=[SdmaDescriptor(0, KiB)],
                             packet=eager_packet(KiB, ctxt))
    sim.process(a.pick_engine().submit(group))
    with pytest.raises(ReproError, match="no dispatcher"):
        sim.run()


def test_engines_have_no_process_before_their_first_submit():
    sim = Simulator()
    params = default_params()
    dev = HFIDevice(sim, params.nic, node_id=0)
    assert len(dev.engines) == params.nic.sdma_engines
    # no start event: an idle engine costs the schedule nothing
    assert sim.peek() == float("inf")


def _one_group_completion(halt, restart_after=None):
    """Completion time of one 4-descriptor group submitted at t=0 to an
    engine halted (``halt``) before its first submit, restarted at once
    (``restart_after`` None) or that many seconds later."""
    sim, params, fabric, a, b = make_pair()
    ctxt = b.alloc_context("test")
    ctxt.on_packet = lambda pkt: None
    engine = a.engines[0]
    a.error_dispatcher = lambda eng, reason: None
    if halt:
        engine.halt("halted before the first submit")
        if restart_after is None:
            engine.restart()
        else:
            sim.timeout(restart_after).add_callback(
                lambda _evt: engine.restart())
    completed = []
    group = SdmaRequestGroup(
        descriptors=[SdmaDescriptor(i * PAGE_SIZE, PAGE_SIZE)
                     for i in range(4)],
        packet=eager_packet(4 * PAGE_SIZE, ctxt),
        on_complete=lambda g: completed.append(sim.now))
    sim.process(engine.submit(group))
    sim.run()
    assert a.tracer.get_count("hfi.sdma_halts") == int(halt)
    return completed, params.nic


def test_engine_halted_and_restarted_before_first_submit_drains():
    (never,), nic = _one_group_completion(halt=False)
    assert never == pytest.approx(
        4 * (nic.sdma_desc_overhead + PAGE_SIZE / nic.link_bandwidth))
    assert _one_group_completion(halt=True)[0] == [never]
    # still halted at the first submit: the loop starts, waits for the
    # restart, then drains
    late, _ = _one_group_completion(halt=True, restart_after=5e-6)
    assert late == [pytest.approx(5e-6 + never)]


def test_rejected_tid_program_installs_nothing():
    """A bad span in the middle of a request must not leave the spans
    before it installed (nobody would own them) or advance the TIDs."""
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    first = a.program_tids(ctxt, [(0x1000, 4 * KiB)])[0]
    for bad in (0, params.nic.tid_max_span + 1):
        with pytest.raises(DriverError):
            a.program_tids(ctxt, [(0x2000, 4 * KiB), (0x3000, bad),
                                  (0x4000, 4 * KiB)])
        assert a.tids_in_use == 1
    assert a.program_tids(ctxt, [(0x5000, 4 * KiB)])[0] == first + 1


def test_rejected_tid_unprogram_removes_nothing():
    sim, params, fabric, a, b = make_pair()
    ctxt = a.alloc_context("rx")
    tids = list(a.program_tids(ctxt, [(0x1000, 4 * KiB), (0x2000, 4 * KiB)]))
    for bad in ([tids[0], 999], [tids[0], tids[0]]):
        with pytest.raises(DriverError):
            a.unprogram_tids(ctxt, bad)
        assert a.tids_in_use == 2
    a.unprogram_tids(ctxt, tids)
    assert a.tids_in_use == 0
    assert a.program_tids(ctxt, [(0x5000, 4 * KiB)])[0] == tids[-1] + 1


def test_descriptor_chain_is_two_columns():
    descs = [SdmaDescriptor(0x1000, 4 * KiB), SdmaDescriptor(0x9000, KiB)]
    chain = DescriptorChain.of(descs)
    assert chain.paddrs == [0x1000, 0x9000] and chain.sizes == [4 * KiB, KiB]
    assert list(chain) == descs and len(chain) == 2
    assert chain[1] == descs[1] and chain[-1] == descs[-1]
    group = SdmaRequestGroup(descriptors=descs,
                             packet=Packet(kind="eager", src_node=0,
                                           dst_node=1, dst_ctxt=0,
                                           nbytes=5 * KiB))
    assert isinstance(group.descriptors, DescriptorChain)
    assert list(group.descriptors) == descs and group.total_bytes == 5 * KiB


#: span sizes around the bounds of a 5 KiB RcvArray entry
_TID_SIZES = (-1, 0, 1, 4 * KiB, 5 * KiB, 5 * KiB + 1, 6 * KiB)
#: the TIDs an unprogram or receive names: a list (picked from those
#: ever handed out, plus unknown ones), or a range of one of these
#: shapes over a range ``program_tids`` returned, with three picks
_TID_ARG = st.one_of(
    st.lists(st.integers(0, 60), max_size=12),
    st.tuples(st.sampled_from(("whole", "sub", "across", "stepped",
                               "empty")),
              st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)))
#: one RcvArray operation: program spans into context 0 or 1 (any sizes,
#: or only sizes that fit, so that records of several TIDs are common),
#: free TIDs, free a context, or receive an expected packet naming TIDs
_RCV_OP = st.one_of(
    st.tuples(st.just("program"), st.integers(0, 1),
              st.lists(st.sampled_from(_TID_SIZES), max_size=40)),
    st.tuples(st.just("program"), st.integers(0, 1),
              st.lists(st.sampled_from((1, 4 * KiB, 5 * KiB)), min_size=1,
                       max_size=12)),
    st.tuples(st.just("unprogram"), st.integers(0, 1), _TID_ARG),
    st.tuples(st.just("free_context"), st.integers(0, 1), st.just(None)),
    st.tuples(st.just("receive"), st.integers(0, 1), _TID_ARG),
)


def _tid_arg(arg, records):
    """The TIDs an op names: the list as drawn, or a range shaped over
    ``records``, the non-empty ranges programmed so far in order (an
    empty range when there are none).  ``k`` picks the range, ``a`` the
    first TID and ``b`` the end or step."""
    if isinstance(arg, list):
        return arg
    shape, k, a, b = arg
    if shape == "empty" or not records:
        return range(a, a)
    k %= len(records)
    rec = records[k]
    lo = rec.start + a % len(rec)
    if shape == "whole":
        return rec
    if shape == "sub":
        return range(lo, lo + 1 + b % (rec.stop - lo))
    if shape == "across":
        nxt = records[k + 1] if k + 1 < len(records) else range(
            rec.stop, rec.stop + 3)
        return range(lo, nxt.start + 1 + b % len(nxt))
    return range(lo, rec.stop, 2 + b % 2)


def _entries(dev):
    """Every programmed entry, looked up TID by TID below ``_next_tid``
    (``tid_entry`` raises on a TID with no entry)."""
    out = {}
    for tid in range(dev._next_tid):
        try:
            out[tid] = dev.tid_entry(tid)
        except DriverError:
            pass
    return out


_FOUR = [4 * KiB] * 4


@given(ops=st.lists(_RCV_OP, max_size=25), faults=st.booleans())
@settings(max_examples=150, deadline=None)
# each range shape on records of several TIDs, whatever the draws
@example(ops=[("program", 0, _FOUR), ("receive", 0, ("across", 0, 0, 0)),
              ("unprogram", 0, ("sub", 0, 0, 0)),
              ("unprogram", 0, ("sub", 0, 2, 0)),
              ("receive", 0, ("whole", 0, 0, 0)),
              ("unprogram", 0, ("stepped", 0, 1, 0))], faults=False)
@example(ops=[("program", 0, _FOUR), ("program", 1, _FOUR),
              ("receive", 1, ("across", 0, 1, 2)),
              ("unprogram", 0, ("across", 0, 1, 2)),
              ("receive", 0, ("across", 1, 0, 0)),
              ("unprogram", 1, ("whole", 0, 0, 0)),
              ("unprogram", 1, ("empty", 0, 3, 0))], faults=True)
# a range across two records of one context, then each context's own
@example(ops=[("program", 0, _FOUR), ("program", 1, _FOUR),
              ("program", 1, _FOUR),
              ("receive", 1, ("across", 1, 1, 2)),
              ("unprogram", 1, ("across", 1, 1, 2)),
              ("receive", 0, ("across", 0, 0, 0)),
              ("unprogram", 0, ("whole", 0, 0, 0)),
              ("unprogram", 1, ("whole", 1, 0, 0))], faults=True)
def test_rcv_array_matches_per_entry_reference(ops, faults):
    """program/unprogram/free_context/receive sequences against one
    ``TidEntry`` per entry in a dict: the same TIDs, ``_next_tid``,
    entries, counters, errors and deliveries, with and without the
    fault plane's stale-TID drop (an installed injector).  Frees and
    packets name TIDs as lists and as ranges: a whole record, part of
    one, one across two records, a stepped range and an empty one.  A
    TID another context programmed is unknown to the free or packet."""
    sim, params, fabric, a, b = make_pair()
    nic = replace(params.nic, rcv_array_entries=48, tid_max_span=5 * KiB)
    dev = HFIDevice(sim, nic, node_id=7)
    ref = PerEntryRcvArray(nic)
    ctxts = [dev.alloc_context("c0"), dev.alloc_context("c1")]
    delivered = []
    for ctxt in ctxts:
        ctxt.on_packet = delivered.append
    dev.injector = FaultInjector(FaultPlan(), None) if faults else None
    records = []

    def program(ctxt, spans):
        tids = dev.program_tids(ctxt, spans)
        if tids:
            records.append(tids)
        return list(tids)

    for op, which, arg in ops:
        ctxt = ctxts[which]
        if op == "program":
            spans = [(i * PAGE_SIZE, n) for i, n in enumerate(arg)]
            calls = (lambda: program(ctxt, spans),
                     lambda: ref.program(ctxt.ctxt_id, spans))
        elif op == "unprogram":
            tids = _tid_arg(arg, records)
            calls = (lambda: dev.unprogram_tids(ctxt, tids),
                     lambda: ref.unprogram(ctxt.ctxt_id, tids))
        elif op == "free_context":
            dev.free_context(ctxt)
            ref.free_context(ctxt.ctxt_id)
            ctxts[which] = dev.alloc_context(f"c{which}")
            ctxts[which].on_packet = delivered.append
            continue
        else:
            tids = _tid_arg(arg, records)
            pkt = Packet(kind="expected", src_node=0, dst_node=7,
                         dst_ctxt=ctxt.ctxt_id, nbytes=KiB,
                         tids=tids if isinstance(tids, range)
                         else tuple(tids))
            calls = (lambda: dev.receive(pkt) or pkt in delivered,
                     lambda: ref.receive(ctxt.ctxt_id, tids, faults))
        outs = []
        for call in calls:
            try:
                outs.append(call())
            except DriverError as exc:
                outs.append(str(exc))
        assert outs[0] == outs[1], op
        assert dev._next_tid == ref.next_tid
        assert _entries(dev) == ref.entries
        assert dev.tids_in_use == len(ref.entries)
        delivered.clear()
    assert dev.tracer.counters == ref.tracer.counters
