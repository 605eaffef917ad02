"""Golden pin on simulated output under faults.

The fault plane's host-side work (the compiled plan, uniforms served in
blocks, one burst scan per SDMA drain) must leave every fault decision
where it was.  This test pins, against values taken before that work:

* one short chaos cell per OS config at fault rate 0.01 with 2 SDMA
  engines: messages delivered, typed failures, goodput at full
  precision, the ``faults.*`` counters, and a sha256 over goodput and
  every tracer counter;
* one storage recovery drill, whose storm and recovery phases swap the
  injector's plan mid-run: per-phase results, eviction/readmit/resync
  counts, the ``faults.*`` counters and a sha256 over the phases and
  every counter;
* the flap smoke campaign, whose phases swap the plan, settle and run a
  suspend/resume drill from inside the message train: per-phase
  messages, deliveries, typed failures, elapsed time and goodput at
  full precision, and the guard counters.

A change that is meant to alter simulated output must say so and update
the pins.
"""

import hashlib
import json

import pytest

from repro.config import ALL_CONFIGS, OSConfig
from repro.experiments import chaos, storage

CHAOS_RATE = 0.01
CHAOS_MESSAGES = 24
DRILL_PHASES = (("baseline", 4), ("storm", 10), ("recovery", 8))

#: config -> (delivered, typed failures, goodput, faults.* counters,
#: sha256 over goodput and all counters)
GOLDEN_CELLS = {
    "linux": (24, 0, 2388198769.6301713,
              {"faults.fabric.corrupt": 4, "faults.fabric.drop": 1,
               "faults.sdma.desc_error": 22, "faults.sdma.engine_halt": 26,
               "faults.tid.transient": 1},
              "8e08e1b9186c86edd6e590d9ce2a7ae3"
              "743d3803c17c61613e63b49b4e16ac9c"),
    "mckernel": (24, 0, 2322448419.212406,
                 {"faults.fabric.corrupt": 4, "faults.fabric.drop": 1,
                  "faults.sdma.desc_error": 24,
                  "faults.sdma.engine_halt": 27,
                  "faults.tid.transient": 1},
                 "48a83f325cd57deeedf441fc34fad804"
                 "4b6028259fae86fc5aa1171b20905587"),
    "mckernel_hfi": (24, 0, 3013353095.973414,
                     {"faults.fabric.corrupt": 4, "faults.fabric.drop": 1,
                      "faults.sdma.desc_error": 13,
                      "faults.sdma.engine_halt": 13,
                      "faults.tid.transient": 1},
                     "2e3afa7db8d240a73afabad6cc840885"
                     "3a57b651f57e352e2be99692a3a544d5"),
}

#: (phase, acked, typed failures, goodput) per phase; each phase's span
#: ends at its last write's return, so the storm's excludes the
#: recovery settle
GOLDEN_DRILL_PHASES = [
    ("baseline", 4, 0, 41088195.168927066),
    ("storm", 10, 0, 20931278.361473363),
    ("recovery", 8, 0, 41088195.16892683),
]
GOLDEN_DRILL = {
    "evictions": 3, "readmits": 3, "resyncs": 3,
    "faults": {"faults.blk.irq_lost": 4, "faults.media.write_error": 2,
               "faults.pxd.path_loss": 1},
    "sha256": "2e6c0cfae7323498bb72ea80e233797b"
              "c9a8c50566bf8317a4e3fe3102d83454",
}

#: (phase, messages, delivered, typed failures, elapsed, goodput) per
#: phase of ``run_flap(smoke=True)``, and its guard counters
GOLDEN_FLAP_PHASES = [
    ("baseline", 6, 6, 0, 0.00024298455284552822, 9473655724.376078),
    ("burst", 6, 6, 0, 0.0026764317073170673, 860082472.3854222),
    ("recovery", 9, 9, 0, 0.0003644768292682971, 9473655724.375954),
    ("drill", 3, 3, 0, 0.00041667227642276476, 2762305209.939609),
]
GOLDEN_FLAP_GUARD = {"guard.failovers": 2, "guard.failbacks": 2,
                     "guard.routed_offload": 11,
                     "guard.congestion_waits": 22, "guard.parked": 1}


def _sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _faults(counters):
    return {name: n for name, n in sorted(counters.items())
            if name.startswith("faults.")}


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_chaos_cell_is_pinned(config):
    cell = chaos._run_cell(config, CHAOS_RATE, CHAOS_MESSAGES)
    assert cell.violations == []
    got = (cell.delivered, cell.failed_typed, cell.goodput,
           _faults(cell.counters),
           _sha256({"goodput": cell.goodput, "counters": cell.counters}))
    assert got == GOLDEN_CELLS[config.value]


def test_storage_drill_with_plan_swaps_is_pinned():
    drill = storage._run_drill(OSConfig.MCKERNEL_HFI, DRILL_PHASES)
    assert drill.violations == []
    assert [(p.name, p.intact, p.typed, p.goodput)
            for p in drill.phases] == GOLDEN_DRILL_PHASES
    phases = [[p.name, p.intact, p.typed, p.elapsed, p.goodput]
              for p in drill.phases]
    assert {"evictions": drill.evictions, "readmits": drill.readmits,
            "resyncs": drill.resyncs, "faults": _faults(drill.counters),
            "sha256": _sha256({"phases": phases,
                               "counters": drill.counters})} == GOLDEN_DRILL


def test_flap_smoke_is_pinned():
    flap = chaos.run_flap(smoke=True)
    assert flap.violations == []
    assert [(p.name, p.count, p.intact, p.typed, p.elapsed,
             p.goodput) for p in flap.phases] == GOLDEN_FLAP_PHASES
    assert {name: flap.counters.get(name, 0)
            for name in GOLDEN_FLAP_GUARD} == GOLDEN_FLAP_GUARD
