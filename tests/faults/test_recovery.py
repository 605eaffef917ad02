"""End-to-end recovery: injected faults either heal transparently
(halt/restart, retransmit, IRQ watchdog, TID retry) or surface as the
typed errors the tentpole contract promises."""

from dataclasses import replace

import pytest

from repro.config import OSConfig, planes
from repro.errors import DeviceTimeout, TransferCorrupt
from repro.experiments import build_machine
from repro.faults import FaultPlan
from repro.params import default_params
from repro.psm import Endpoint, TagMatcher
from repro.units import KiB, MiB


def build_faulty_machine(plan, os_config=OSConfig.LINUX, params=None):
    """A 2-node machine with ``plan``'s injector installed (the machine
    keeps it for its lifetime; the ``faults`` slot is set only while
    the machine is built)."""
    with planes(faults=plan):
        return build_machine(2, os_config, params=params)


def run_transfers(plan, sizes, os_config=OSConfig.LINUX, params=None):
    """One sender, one receiver, one message per entry of ``sizes``.

    Returns ``(machine, send outcomes, receive requests)`` where an
    outcome is ``"ok"`` or the typed exception the blocking send raised.
    """
    machine = build_faulty_machine(plan, os_config, params)
    sim = machine.sim
    t0 = machine.spawn_rank(0, 0, 0)
    t1 = machine.spawn_rank(1, 0, 1)
    ep0 = Endpoint(sim, machine.params, machine.nodes[0].node.hfi, t0,
                   tracer=machine.tracer)
    ep1 = Endpoint(sim, machine.params, machine.nodes[1].node.hfi, t1,
                   tracer=machine.tracer)
    bufsize = 2 * max(sizes)
    outcomes = {}
    reqs = {}

    def sender():
        yield from ep0.open()
        buf = yield from t0.syscall("mmap", bufsize)
        while ep1.addr is None:
            yield sim.timeout(1e-6)
        for i, size in enumerate(sizes):
            try:
                yield from ep0.mq_send(ep1.addr, ("t", i), buf, size,
                                       payload=("p", i))
                outcomes[i] = "ok"
            except (DeviceTimeout, TransferCorrupt) as exc:
                outcomes[i] = exc

    def receiver():
        yield from ep1.open()
        buf = yield from t1.syscall("mmap", bufsize)
        for i, _size in enumerate(sizes):
            reqs[i] = ep1.mq_irecv(TagMatcher(tag=("t", i)),
                                   (buf, bufsize))

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    return machine, outcomes, reqs


def delivered(req):
    return req.event.triggered and req.event.exception is None


def test_zero_rate_plan_delivers_without_drawing_faults():
    machine, outcomes, reqs = run_transfers(
        FaultPlan(), [4 * KiB, 96 * KiB, 1 * MiB])
    assert all(v == "ok" for v in outcomes.values())
    assert all(delivered(r) for r in reqs.values())
    assert not any(k.startswith("faults.")
                   for k in machine.tracer.counters)


@pytest.mark.parametrize("os_config",
                         [OSConfig.LINUX, OSConfig.MCKERNEL_HFI])
def test_sdma_desc_error_halts_and_recovers(os_config):
    """Descriptor errors freeze the engine; the driver's halt/restart
    state machine brings it back and the transfer still lands."""
    machine, outcomes, reqs = run_transfers(
        FaultPlan(sdma_desc_error=0.05), [1 * MiB], os_config)
    assert outcomes[0] == "ok" and delivered(reqs[0])
    halts = machine.tracer.get_count("hfi.sdma_halts")
    assert halts > 0
    assert machine.tracer.get_count("hfi.sdma_restarts") == halts
    assert machine.tracer.get_count("hfi.sdma_recoveries") >= 1


def test_spontaneous_engine_halt_recovers():
    machine, outcomes, reqs = run_transfers(
        FaultPlan(sdma_engine_halt=0.05), [1 * MiB])
    assert outcomes[0] == "ok" and delivered(reqs[0])
    assert machine.tracer.get_count("faults.sdma.engine_halt") > 0
    assert machine.tracer.get_count("hfi.sdma_restarts") > 0


def test_lost_completion_irq_is_recovered_by_watchdog():
    """Every completion interrupt dropped: the deferred redelivery path
    must complete every transfer anyway."""
    machine, outcomes, reqs = run_transfers(
        FaultPlan(irq_lost=1.0), [96 * KiB])
    assert outcomes[0] == "ok" and delivered(reqs[0])
    assert machine.tracer.get_count("hfi.irq_recovered") >= 1


def test_fabric_drops_are_retransmitted():
    machine, outcomes, reqs = run_transfers(
        FaultPlan(fabric_drop=0.3), [4 * KiB] * 4)
    assert all(v == "ok" for v in outcomes.values())
    assert all(delivered(r) for r in reqs.values())
    assert machine.tracer.get_count("psm.retransmits") > 0


def test_corruption_is_detected_and_healed():
    machine, outcomes, reqs = run_transfers(
        FaultPlan(fabric_corrupt=0.3), [4 * KiB] * 4)
    assert all(v == "ok" for v in outcomes.values())
    assert all(delivered(r) for r in reqs.values())
    assert machine.tracer.get_count("psm.corrupt_drops") > 0


def test_total_blackout_surfaces_device_timeout():
    """With every packet dropped the retry budget runs out and the
    blocking send raises the typed error (the same event MPI_Wait
    yields on, so the error reaches MPI callers identically)."""
    machine, outcomes, reqs = run_transfers(
        FaultPlan(fabric_drop=1.0), [4 * KiB])
    assert isinstance(outcomes[0], DeviceTimeout)
    assert not reqs[0].event.triggered
    assert machine.tracer.get_count("psm.send_failures") == 1
    assert (machine.tracer.get_count("psm.retransmits")
            == machine.params.psm.max_retries)


def test_rendezvous_blackout_times_out_via_rts_watchdog():
    machine, outcomes, _reqs = run_transfers(
        FaultPlan(fabric_drop=1.0), [1 * MiB])
    assert isinstance(outcomes[0], DeviceTimeout)
    assert "RTS" in str(outcomes[0]) or "rendezvous" in str(outcomes[0])


def test_transient_tid_failures_are_retried():
    machine, outcomes, reqs = run_transfers(
        FaultPlan(tid_transient=0.5), [1 * MiB])
    assert outcomes[0] == "ok" and delivered(reqs[0])
    assert machine.tracer.get_count("psm.tid_retries") > 0


@pytest.mark.parametrize("os_config",
                         [OSConfig.LINUX, OSConfig.MCKERNEL_HFI])
def test_persistent_payload_corruption_raises_transfer_corrupt(os_config):
    """If every expected-data packet arrives corrupted, the receiver's
    CTS watchdog exhausts its budget and fails the receive with
    TransferCorrupt (not a bare timeout)."""
    machine = build_faulty_machine(FaultPlan(), os_config)
    sim = machine.sim
    t0 = machine.spawn_rank(0, 0, 0)
    t1 = machine.spawn_rank(1, 0, 1)
    ep0 = Endpoint(sim, machine.params, machine.nodes[0].node.hfi, t0,
                   tracer=machine.tracer)
    ep1 = Endpoint(sim, machine.params, machine.nodes[1].node.hfi, t1,
                   tracer=machine.tracer)
    hfi_b = machine.nodes[1].node.hfi
    orig_receive = hfi_b.receive

    def corrupting_receive(pkt):
        if pkt.kind == "expected":
            pkt = replace(pkt, csum=(pkt.csum or 0) ^ 1)
        orig_receive(pkt)

    hfi_b.receive = corrupting_receive
    reqs = {}

    def sender():
        yield from ep0.open()
        buf = yield from t0.syscall("mmap", 2 * MiB)
        while ep1.addr is None:
            yield sim.timeout(1e-6)
        # non-blocking: the send side legitimately never completes
        # (its windows are re-requested until the receiver gives up)
        yield from ep0.mq_isend(ep1.addr, ("t", 0), buf, 1 * MiB)

    def receiver():
        yield from ep1.open()
        buf = yield from t1.syscall("mmap", 2 * MiB)
        reqs[0] = ep1.mq_irecv(TagMatcher(tag=("t", 0)),
                               (buf, 2 * MiB))

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert reqs[0].event.triggered
    assert isinstance(reqs[0].event.exception, TransferCorrupt)
    assert machine.tracer.get_count("psm.corrupt_drops") > 0
    assert machine.tracer.get_count("psm.recv_failures") == 1


def test_pico_fast_path_falls_back_on_halted_engine():
    """The acceptance counter: with engine halts injected and a single
    SDMA engine, the PicoDriver fast path must decline at least once and
    the dispatcher re-issue over the offload path."""
    params = default_params()
    params = params.with_overrides(
        nic=replace(params.nic, sdma_engines=1))
    machine, outcomes, reqs = run_transfers(
        FaultPlan(sdma_desc_error=0.05), [1 * MiB] * 2,
        OSConfig.MCKERNEL_HFI, params=params)
    assert all(v == "ok" for v in outcomes.values())
    assert all(delivered(r) for r in reqs.values())
    assert machine.tracer.get_count("pico.fallbacks") >= 1
    assert machine.tracer.get_count("pico.fallback.writev") >= 1
