"""Golden pin on simulated output: a small IMB ping-pong per OS config.

Host-side optimisations of the simulator (batched page walks, descriptor
builds, ring drains, a slimmer event core) must leave every simulated
number exactly as it was.  This test runs one repetition at 8 B, 256 KiB
and 4 MiB on each configuration and pins two things against values taken
before those optimisations:

* the number of DES steps (``sim.step`` calls) the run took;
* a sha256 over the full-precision bandwidths, the sorted tracer counters
  and every accumulator's count/total/min/max.

A change that is meant to alter simulated output must say so and update
``GOLDEN``.
"""

import hashlib
import json

import pytest

from repro.apps.imb import PingPong
from repro.config import ALL_CONFIGS
from repro.experiments import build_machine
from repro.units import KiB, MiB

SIZES = (8, 256 * KiB, 4 * MiB)

#: config -> (DES steps, sha256 of the simulated outputs)
GOLDEN = {
    "linux": (1211, "042a6795e87784a94521c5bff6dea442"
                    "c3ccf6839a508a254c215b7c0f954e4c"),
    "mckernel": (2174, "ded33f7b4d1944df159dd1a924e85762"
                       "c36a5c508057ce20829b3abd492ffe18"),
    "mckernel_hfi": (1267, "430cfaa54b320f41816ca01f76a5fd8b"
                           "d11d758417bfc537add5450a85de292e"),
}


def _tracer_state(tracer):
    return {"counters": dict(sorted(tracer.counters.items())),
            "accs": {name: [acc.count, acc.total, acc.min, acc.max]
                     for name, acc in sorted(tracer.accs.items())}}


def measure(config):
    """(DES steps, output digest) of one ping-pong run on ``config``."""
    machine = build_machine(2, config)
    sim = machine.sim
    steps = [0]
    step = sim.step

    def counted_step():
        steps[0] += 1
        step()

    sim.step = counted_step
    series = PingPong(machine, repetitions=1, warmup=0).run(SIZES)
    tracers = {id(machine.tracer): machine.tracer}
    for node in machine.nodes:
        tracers.setdefault(id(node.linux.tracer), node.linux.tracer)
    outputs = {"bw": {str(size): bw for size, bw in series.items()},
               "tracers": [_tracer_state(t) for t in tracers.values()]}
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return steps[0], hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_pingpong_output_is_pinned(config):
    assert measure(config) == GOLDEN[config.value]
