"""The buffered fault injector against a per-call scalar reference.

``FaultInjector`` compiles its plan on every assignment, serves each
point's uniforms from blocks drawn from the point's own stream, and
draws runs of quiet opportunities in one ``quiet_run`` call.
``ScalarInjector`` (``tests/faults/reference.py``) makes one scalar draw
per ``fires`` call.  On any interleaving of single draws, bursts and
plan swaps both must give the same decisions, the same tracer counters,
the same streams and the same opportunity census.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_POINTS, FaultInjector, FaultPlan, ScheduledFault
from repro.faults import plan as plan_mod
from repro.sim import RngFactory, Tracer

from .reference import ScalarInjector, burst

POINTS = sorted(FAULT_POINTS)
SDMA = ("sdma.desc_error", "sdma.engine_halt")

PLANS = [
    FaultPlan.uniform(0.3),
    FaultPlan(sdma_desc_error=0.05, sdma_engine_halt=0.02, irq_lost=0.5),
    FaultPlan(),
    FaultPlan.uniform(0.0, fabric_drop=1.0),
    FaultPlan.placed(ScheduledFault("sdma.desc_error", 3),
                     ScheduledFault("sdma.engine_halt", 3),
                     ScheduledFault("sdma.engine_halt", 40),
                     ScheduledFault("irq.lost", 1)),
    FaultPlan.placed(),
]

_op = st.one_of(
    st.tuples(st.just("fire"), st.sampled_from(POINTS)),
    st.tuples(st.just("burst"),
              st.one_of(st.just(SDMA),
                        st.lists(st.sampled_from(POINTS), min_size=1,
                                 max_size=3, unique=True).map(tuple)),
              st.sampled_from((0, 1, 8, 37))),
    st.tuples(st.just("swap"), st.integers(0, len(PLANS) - 1)),
)


def run_ops(cls, first_plan, ops, seed=11):
    tracer = Tracer()
    inj = cls(PLANS[first_plan], RngFactory(seed).spawn("faults"), tracer)
    out = []
    for op in ops:
        if op[0] == "fire":
            out.append(inj.fires(op[1]))
        elif op[0] == "burst":
            out.append(burst(inj, op[1], op[2]))
        else:
            inj.plan = PLANS[op[1]]
    return (out, list(tracer.counters.items()), list(inj._streams),
            list(inj.occurrences.items()))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(PLANS) - 1), st.lists(_op, max_size=40),
       st.sampled_from((1, 3, plan_mod.UNIFORM_BLOCK)))
def test_buffered_injector_matches_scalar_reference(first_plan, ops, block):
    saved = plan_mod.UNIFORM_BLOCK
    plan_mod.UNIFORM_BLOCK = block
    try:
        got = run_ops(FaultInjector, first_plan, ops)
    finally:
        plan_mod.UNIFORM_BLOCK = saved
    assert got == run_ops(ScalarInjector, first_plan, ops)


@pytest.mark.parametrize("n", (1, 8, 37))
def test_bursts_match_per_opportunity_draws(n):
    """Long runs of bursts, with firings, across block refills."""
    ops = [("burst", SDMA, n)] * 300 + [("fire", p) for p in POINTS]
    got = run_ops(FaultInjector, 1, ops)
    assert got == run_ops(ScalarInjector, 1, ops)
    assert any(k < n for k, _ in got[0][:300])


def test_zero_rate_plan_creates_no_stream():
    inj = FaultInjector(FaultPlan(), RngFactory(3).spawn("faults"))
    for n in (1, 8, 37):
        assert inj.quiet_run(SDMA, n) == n
        assert inj.quiet_run(tuple(POINTS), n) == n
    assert not any(inj.fires(p) for p in POINTS)
    assert inj._streams == {}


def test_empty_burst_draws_nothing():
    inj = FaultInjector(FaultPlan.uniform(0.5), RngFactory(3).spawn("faults"))
    assert inj.quiet_run(SDMA, 0) == 0
    assert inj._streams == {}
    placed = FaultInjector(FaultPlan.placed(), RngFactory(3).spawn("faults"))
    assert placed.quiet_run(SDMA, 0) == 0
    assert placed.occurrences == {}


def test_plan_swap_recompiles_the_draw_path():
    """Swapping a rate plan for a placed one (and back) switches both
    draw paths; the placed plan's schedule is the one in force."""
    inj = FaultInjector(FaultPlan.uniform(0.0),
                        RngFactory(3).spawn("faults"))
    assert not inj.fires("irq.lost")
    inj.plan = FaultPlan.placed(ScheduledFault("irq.lost", 1))
    assert [inj.fires("irq.lost") for _ in range(3)] == [False, True, False]
    assert inj.quiet_run(("irq.lost",), 5) == 5
    inj.plan = FaultPlan(irq_lost=1.0)
    assert inj.fires("irq.lost")
    assert inj.quiet_run(("irq.lost",), 5) == 0
    assert list(inj._streams) == ["irq.lost"]


def test_block_draws_equal_scalar_draws():
    """The identity the buffering rests on: ``Generator.random(n)``
    yields the same doubles as ``n`` scalar ``random()`` calls, and a
    stream continues seamlessly across blocks."""
    factory = RngFactory(20180611).spawn("faults")
    scalar = factory.stream("fault", "sdma.desc_error")
    blocks = factory.stream("fault", "sdma.desc_error")
    want = [scalar.random() for _ in range(1000)]
    got = []
    for size in (1, 7, 256, 300, 436):
        got.extend(blocks.random(size).tolist())
    assert got == want
    assert all(type(u) is float for u in got)
    assert np.array_equal(np.array(got), np.array(want))
