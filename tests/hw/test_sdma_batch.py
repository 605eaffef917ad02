"""The batched SDMA engine against a per-descriptor reference engine.

``SdmaEngine`` keeps segments of request chains on its ring, fills it a
run of free slots at a time and drains a burst in one pass with one
tracer call pair.  ``PerDescriptorEngine`` below is the engine as it was
before: its own ring with one slot per descriptor, one ring append per
descriptor on submit, two ``fires`` draws per descriptor while draining,
one ``count``/``record`` pair per descriptor after a burst.  Both run
the same two-submitter workload on an 8-slot ring, with groups that wrap
the ring; completion order, times, tracer state and descriptor spans
must be identical.

Under faults the batched engine is paired with the buffered injector
(one ``quiet_run`` per drain) and the reference engine with the per-call
scalar injector of ``tests/faults/reference.py``; halts, their reasons
and times, and the draws each fault point consumed must match too,
including when the engine is halted while a burst waits for the port.
"""

from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PLANES, planes
from repro.faults import FaultInjector, FaultPlan
from repro.hw import (DescriptorChain, Fabric, HFIDevice, Packet,
                      SdmaDescriptor, SdmaRequestGroup)
from repro.hw.hfi import SdmaEngine
from repro.obs import SpanCollector
from repro.obs.spans import track_of
from repro.params import default_params
from repro.sim import Event, RngFactory, Simulator

from ..faults.reference import ScalarInjector

RING = 8
#: descriptors per group, per submitter
GROUPS = {"a": (1, 8, 9, 37), "b": (37, 9, 8, 1)}
#: driver-side restart delay after a halt, and how long the port is held
#: over the first burst in the port-wait case (both well above one burst)
RESTART_S = 20e-6
HOG_S = 10e-6


class PerDescriptorEngine(SdmaEngine):
    """Reference: one ring slot per descriptor, and the per-descriptor
    submit and drain loops."""

    def __init__(self, sim, device, index):
        #: (descriptor, group, is-last-of-group, trace span) per slot
        self._slots = deque()
        super().__init__(sim, device, index)

    @property
    def free_slots(self):
        return self.ring_size - len(self._slots)

    def submit(self, group):
        last_idx = len(group.descriptors) - 1
        for i, desc in enumerate(group.descriptors):
            while self.free_slots == 0:
                waiter = Event(self.sim)
                self._space_waiters.append(waiter)
                yield waiter
            dspan = PLANES.trace.begin_span(
                "sdma.desc", track_of(self), cat="sdma",
                args={"nbytes": desc.nbytes, "kind": group.packet.kind},
                detached=True) if PLANES.trace is not None else None
            self._slots.append((desc, group, i == last_idx, dspan))
            if len(self._slots) == 1 and not self.busy:
                self._kick()  # the first kick starts the drain loop

    def _run(self):
        params = self.device.params
        while True:
            if self.halted:
                yield self._restart_evt
                continue
            if not self._slots:
                yield self._work.get()
                continue
            self.busy = True
            with self.device.egress.request() as port:
                yield port
                t0 = self.sim.now
                inj = self.device.injector
                burst = []
                t = 0.0
                while self._slots:
                    if inj is not None:
                        if inj.fires("sdma.desc_error"):
                            self.halt("descriptor fetch error")
                        if inj.fires("sdma.engine_halt"):
                            self.halt("spontaneous engine freeze")
                    if self.halted:
                        break
                    desc, group, is_last, dspan = self._slots.popleft()
                    t += (params.sdma_desc_overhead
                          + desc.nbytes / params.link_bandwidth)
                    burst.append((desc, group, is_last, dspan, t))
                yield self.sim.timeout(t)
            self.busy = False
            for desc, group, is_last, dspan, t_done in burst:
                self.device.tracer.count("hfi.sdma_descs")
                self.device.tracer.record("hfi.sdma_desc_bytes", desc.nbytes)
                if dspan is not None:
                    dspan.end = t0 + t_done
                if is_last:
                    if dspan is not None:
                        group.packet = group.packet.replace(trace=dspan)
                    self.device._transmit(group.packet)
                    self.device.raise_irq(group)
            while self._space_waiters and self.free_slots > 0:
                self._space_waiters.popleft().succeed()


def desc_cost(params, nbytes):
    return params.sdma_desc_overhead + nbytes / params.link_bandwidth


def default_chain(g, count):
    """Group ``g``'s chain of ``count`` descriptors with varying sizes."""
    return DescriptorChain.of(
        SdmaDescriptor(0x100000 * g + i * 4096, 1024 * (1 + (i * 7 + g) % 10))
        for i in range(count))


def run_chain(g, runs):
    """Group ``g``'s chain of ``(size, count)`` runs."""
    n = sum(count for _size, count in runs)
    return DescriptorChain(list(runs), [0x100000 * g + i * 4096
                                        for i in range(n)])


def run_workload(engine_cls, injector=None, halt_in_port_wait=False,
                 groups=None, ring=RING):
    """Two submitters share one engine (8 slots unless ``ring`` says
    otherwise); returns the completions ``[(time, label)]``, the number
    of DES steps taken, the sender's tracer and the parameters.

    ``groups`` maps each submitter to its groups' run lists (``GROUPS``'
    varying-size chains when ``None``).  With ``injector`` (installed on
    the sending device) halts are logged in ``injector.halts`` and
    restarted after a fixed delay.  ``halt_in_port_wait`` holds the
    egress port over the first burst and halts the engine while the
    burst waits for it."""
    sim = Simulator()
    params = default_params()
    nic = replace(params.nic, sdma_ring_size=ring, sdma_engines=1)
    fabric = Fabric(sim, nic)
    tx = HFIDevice(sim, nic, node_id=0)
    rx = HFIDevice(sim, nic, node_id=1)
    fabric.attach(tx)
    fabric.attach(rx)
    tx.irq_dispatcher = lambda grp: grp.on_complete(grp)
    ctxt = rx.alloc_context("rx")
    ctxt.on_packet = lambda pkt: None
    engine = engine_cls(sim, tx, 0)
    completions = []
    if injector is not None:
        tx.injector = injector
        injector.halts = []

        def on_error(eng, reason):
            injector.halts.append((sim.now, reason))
            sim.timeout(RESTART_S).add_callback(lambda _e: eng.restart())

        tx.error_dispatcher = on_error
    if halt_in_port_wait:
        def hog():
            with tx.egress.request() as port:
                yield port
                yield sim.timeout(HOG_S)

        def halter():
            yield sim.timeout(HOG_S / 2)
            assert engine.busy and not engine.halted
            engine.halt("halted in port wait")

        sim.process(hog())
        sim.process(halter())

    def submitter(name):
        chains = ([default_chain(g, count)
                   for g, count in enumerate(GROUPS[name])]
                  if groups is None else
                  [run_chain(g, runs) for g, runs in enumerate(groups[name])])
        for g, descs in enumerate(chains):
            group = SdmaRequestGroup(
                descriptors=descs,
                packet=Packet(kind="eager", src_node=0, dst_node=1,
                              dst_ctxt=ctxt.ctxt_id, nbytes=descs.nbytes),
                on_complete=lambda grp, label=f"{name}{g}":
                    completions.append((sim.now, label)))
            yield from engine.submit(group)

    sim.process(submitter("a"))
    sim.process(submitter("b"))
    steps = 0
    while sim.peek() < float("inf"):
        sim.step()
        steps += 1
    return completions, steps, tx.tracer, nic


def traced(engine_cls):
    collector = SpanCollector()
    with planes(trace=collector):
        out = run_workload(engine_cls)
    descs = [(s.args["nbytes"], s.end) for s in collector.spans
             if s.name == "sdma.desc"]
    return out, descs


def test_batched_engine_matches_per_descriptor_reference():
    got, steps, tracer, _ = run_workload(SdmaEngine)
    want, ref_steps, ref_tracer, _ = run_workload(PerDescriptorEngine)
    assert got == want
    assert steps == ref_steps
    assert len(got) == sum(len(g) for g in GROUPS.values())
    assert tracer.counters == ref_tracer.counters
    assert tracer.accs == ref_tracer.accs
    n_descs = sum(sum(g) for g in GROUPS.values())
    assert tracer.get_count("hfi.sdma_descs") == n_descs


def test_groups_complete_in_submission_order_per_submitter():
    got, _, _, _ = run_workload(SdmaEngine)
    for name, groups in GROUPS.items():
        mine = [label for _, label in got if label.startswith(name)]
        assert mine == [f"{name}{g}" for g in range(len(groups))]


def test_engine_never_idles_between_bursts():
    """The last completion is the sum of every descriptor's cost."""
    got, _, tracer, nic = run_workload(SdmaEngine)
    acc = tracer.accs["hfi.sdma_desc_bytes"]
    total = (acc.count * nic.sdma_desc_overhead
             + acc.total / nic.link_bandwidth)
    assert got[-1][0] == pytest.approx(total, rel=1e-12)


def test_one_span_per_descriptor_with_its_own_end():
    (got, _, _, nic), spans = traced(SdmaEngine)
    (want, _, _, _), ref_spans = traced(PerDescriptorEngine)
    assert got == want
    assert spans == ref_spans
    assert len(spans) == sum(sum(g) for g in GROUPS.values())
    # consecutive descriptors leave the wire one descriptor cost apart
    ends = sorted(spans, key=lambda s: s[1])
    for (_, prev), (nbytes, end) in zip(ends, ends[1:]):
        assert end - prev == pytest.approx(desc_cost(nic, nbytes), rel=1e-9)
    # groups complete at the end of a burst, as its last descriptor
    # leaves the wire
    assert {t for t, _ in got} <= {end for _, end in spans}


#: SDMA fault rates high enough that most drains halt at least once
FAULT_PLAN = FaultPlan(sdma_desc_error=0.04, sdma_engine_halt=0.03)


def faulted(engine_cls, injector_cls, seed, halt_in_port_wait=False,
            groups=None, ring=RING):
    """One faulted run; returns its outputs, halt log, and the next 64
    decisions per SDMA point at rate 0.5 (which pins how many uniforms
    each point's stream has consumed)."""
    inj = injector_cls(FAULT_PLAN, RngFactory(seed).spawn("faults"))
    completions, steps, tracer, _ = run_workload(
        engine_cls, inj, halt_in_port_wait, groups, ring)
    inj.tracer = tracer
    inj.plan = FaultPlan(sdma_desc_error=0.5, sdma_engine_halt=0.5)
    tail = [inj.fires(p) for p in ("sdma.desc_error", "sdma.engine_halt")
            for _ in range(64)]
    return (completions, steps, dict(tracer.counters), tracer.accs,
            inj.halts, list(inj._streams), tail)


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
def test_faulted_engine_matches_per_descriptor_reference(seed):
    got = faulted(SdmaEngine, FaultInjector, seed)
    want = faulted(PerDescriptorEngine, ScalarInjector, seed)
    assert got == want
    completions, _, counters, _, halts, _, _ = got
    assert len(completions) == sum(len(g) for g in GROUPS.values())
    assert halts and counters["hfi.sdma_halts"] == len(halts)


@pytest.mark.parametrize("seed", (1, 5))
def test_halt_while_waiting_for_the_port_matches_reference(seed):
    """Halted before the burst gets the port: one draw per point, no
    descriptor popped, then the engine waits for its restart."""
    got = faulted(SdmaEngine, FaultInjector, seed, halt_in_port_wait=True)
    want = faulted(PerDescriptorEngine, ScalarInjector, seed,
                   halt_in_port_wait=True)
    assert got == want
    halts = got[4]
    assert halts[0] == (HOG_S / 2, "halted in port wait")
    # nothing left the ring before the restart
    assert all(t >= HOG_S / 2 + RESTART_S for t, _ in got[0])


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
def test_traced_partial_drains_match_reference(seed):
    """Faulted bursts stop part-way through a ring segment; traced, every
    descriptor of the rest of the segment still gets its own span, ended
    when it leaves the wire, as in the per-descriptor reference."""
    def run(engine_cls, injector_cls):
        collector = SpanCollector()
        with planes(trace=collector):
            out = faulted(engine_cls, injector_cls, seed)
        return out, [(s.args["nbytes"], s.end) for s in collector.spans
                     if s.name == "sdma.desc"]

    got, spans = run(SdmaEngine, FaultInjector)
    want, ref_spans = run(PerDescriptorEngine, ScalarInjector)
    assert got == want
    assert spans == ref_spans
    assert got[4], "no halt: the run never stopped a burst part-way"
    assert len(spans) == sum(sum(g) for g in GROUPS.values())
    assert all(end is not None for _, end in spans)


#: one group: runs of a few descriptor sizes (a 4 KB page, a partial
#: page, the 10 KB hardware maximum), long enough to wrap the 8-slot ring
_RUNS = st.lists(st.tuples(st.sampled_from([1024, 4096, 6144, 10240]),
                           st.integers(1, 40)), min_size=1, max_size=4)
_GROUPS = st.fixed_dictionaries({
    name: st.lists(_RUNS, min_size=1, max_size=3) for name in ("a", "b")})


@given(groups=_GROUPS, seed=st.integers(1, 2**16),
       ring=st.sampled_from([RING, 512]),
       mode=st.sampled_from(["plain", "faulted", "traced",
                             "traced-faulted"]))
@settings(max_examples=40, deadline=None)
def test_run_length_chains_match_per_descriptor_reference(groups, seed,
                                                          ring, mode):
    """Chains given as runs, drained whole (a 512-slot ring) or split by
    ring-full waits (the 8-slot ring), cut part-way by faults, and
    traced: the same completions and their times, steps, counters and
    ``hfi.sdma_desc_bytes`` count, total, min and max (bit for bit) as
    the per-descriptor engine, and when traced the same descriptor spans
    with the same end times."""
    def run(engine_cls, injector_cls):
        collector = SpanCollector() if mode.startswith("traced") else None
        with planes(trace=collector):
            if mode.endswith("faulted"):
                out = faulted(engine_cls, injector_cls, seed,
                              groups=groups, ring=ring)
            else:
                completions, steps, tracer, _ = run_workload(
                    engine_cls, groups=groups, ring=ring)
                out = (completions, steps, dict(tracer.counters), tracer.accs)
        spans = [] if collector is None else [
            (s.args["nbytes"], s.end) for s in collector.spans
            if s.name == "sdma.desc"]
        return out, spans

    got, spans = run(SdmaEngine, FaultInjector)
    want, ref_spans = run(PerDescriptorEngine, ScalarInjector)
    assert got == want
    assert spans == ref_spans
    n_descs = sum(count for runs in groups.values() for chain in runs
                  for _size, count in chain)
    acc = got[3]["hfi.sdma_desc_bytes"]
    assert acc.count == n_descs
    assert acc.total == sum(size * count for runs in groups.values()
                            for chain in runs for size, count in chain)
    assert len(got[0]) == sum(len(runs) for runs in groups.values())
