"""The benchmark's five workloads: one round of each, its oracles, its digest.

A round is a fixed amount of simulated work made from the seed alone. It
goes through the reproduction's public entry points only, so the benchmark
measures the program from outside:

* ``pp_eager`` / ``pp_rndv`` -- ``build_machine`` + ``PingPong.run`` on two
  nodes under every OS configuration;
* ``chaos`` / ``storage`` -- the ``_run_cell`` entries of
  ``repro.experiments.chaos`` and ``repro.experiments.storage`` (the cells
  PicoTune already evaluates);
* ``macro`` -- ``run_fig5a`` ... ``run_fig9`` on the cluster model.

A round is a list of steps (one OS configuration, one cell, one figure)
that the harness can time one by one, and a ``finish`` that combines the
step results.  Every workload answers the same questions: how many
operations a round attempts and how many were not delivered intact, the
simulated outputs that go into the round's digest, the simulated headline
numbers, and the oracle violations it found.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.imb import PingPong
from repro.cluster.model import CommCostModel
from repro.config import ALL_CONFIGS, OSConfig
from repro.experiments import (build_machine, chaos, run_fig5a, run_fig5b,
                               run_fig6a, run_fig6b, run_fig7, run_fig8,
                               run_fig9, storage)
from repro.params import default_params
from repro.sim import RngFactory
from repro.units import KiB, MiB

LINUX, MCK, HFI = OSConfig.LINUX, OSConfig.MCKERNEL, OSConfig.MCKERNEL_HFI

#: IMB warm-up exchanges per message size (not timed by the harness)
PP_WARMUP = 1
#: every size sits below the 64 KiB PIO threshold: no page walk, no SDMA
EAGER_SIZES = (8, 64, 512, 4 * KiB, 16 * KiB, 32 * KiB)
EAGER_REPS = 20
#: rendezvous sizes: TID registration plus SDMA descriptors (Figure 4)
RNDV_SIZES = (256 * KiB, 1 * MiB, 4 * MiB)
RNDV_REPS = 5

CHAOS_RATE = 0.01
CHAOS_MESSAGES = 60
CHAOS_ENGINES = 2
#: independent fault seeds per round: one 60-message cell's PicoDriver
#: advantage varies by ~9% (interquartile) from seed to seed, the mean of
#: eight cells by ~3%
CHAOS_SUBSEEDS = 8

#: uniform storage fault rate. At 0.002 and above, torn writes can evict
#: every replica for good (readmission refused), which ends the remaining
#: writes with a typed MediaError on some seeds; the benchmark needs a
#: workload on which no operation fails.
STORAGE_RATE = 0.001
STORAGE_WRITES = 40
STORAGE_REPLICAS = 3

#: the five applications of Figures 5-7, scored at their largest node count
MACRO_SCALING = (run_fig5a, run_fig5b, run_fig6a, run_fig6b, run_fig7)
MACRO_BREAKDOWNS = (("umt2013", run_fig8), ("qbox", run_fig9))

Step = Callable[[], object]


def digest(outputs) -> str:
    """sha256 of a round's simulated outputs (floats at full precision)."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RoundOut:
    """Everything one round produced that the harness checks or reports."""

    ops: int
    #: operations not delivered intact (typed failures included)
    failed: int
    #: JSON-able simulated outputs; their sha256 is the round's digest
    outputs: dict
    #: McKernel+HFI1 / Linux on the workload's headline quantity
    pico_vs_linux: float
    #: McKernel+HFI1 simulated one-way time per message (pp_* only), us
    lat_us: float
    #: McKernel+HFI1 simulated bandwidth or goodput, MB/s (0 on macro)
    mbps: float
    problems: List[str] = field(default_factory=list)
    #: cluster.kernel_time_ratio.<app> (macro only)
    kernel_time_ratio: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its round, its set-up and its span target."""

    name: str
    #: the round's steps for a seed
    steps: Callable[[int], List[Step]]
    #: combine the step results (in step order) into the round's outcome
    finish: Callable[[List[object]], RoundOut]
    #: build one of each machine the workload uses (the set-up probe)
    build: Callable[[int], None]
    #: message size whose critical path the span pass walks (0 = none)
    cp_nbytes: int = 0

    def run_round(self, seed: int,
                  run: Optional[Callable[[Step], object]] = None):
        """One round; ``run`` calls each step (the harness times them)."""
        return self.finish([step() if run is None else run(step)
                            for step in self.steps(seed)])


# -- ping-pong -------------------------------------------------------------


def _pingpong_steps(seed: int, sizes: Sequence[int], reps: int) -> List[Step]:
    params = default_params(seed)

    def one(config: OSConfig):
        machine = build_machine(2, config, params=params)
        series = PingPong(machine, repetitions=reps,
                          warmup=PP_WARMUP).run(sizes)
        tr = machine.tracer
        messages = 2 * (reps + PP_WARMUP) * len(sizes)
        payload = 2 * (reps + PP_WARMUP) * sum(sizes)
        eager = tr.get_count("psm.eager_sends")
        sent = eager + tr.get_count("psm.rndv_sends")
        # every PIO packet that is not an eager message is an RTS/CTS
        ctrl = (tr.get_count("hfi.pio_msgs") - eager) * params.psm.ctrl_bytes
        problems = []
        if sent != messages:
            problems.append(f"{config.value}: {sent} messages sent, "
                            f"expected {messages}")
        if tr.get_total("hfi.tx_bytes") != payload + ctrl:
            problems.append(f"{config.value}: {tr.get_total('hfi.tx_bytes')}"
                            f" bytes on the wire, expected {payload + ctrl}")
        for size, bw in series.items():
            if not (math.isfinite(bw) and bw > 0):
                problems.append(f"{config.value}: {size} B bandwidth {bw}")
        return {"config": config, "series": series, "messages": messages,
                "counters": dict(sorted(tr.counters.items())),
                "problems": problems}

    return [lambda c=c: one(c) for c in ALL_CONFIGS]


def _pingpong_finish(results):
    series = {r["config"]: r["series"] for r in results}
    outputs = {"bw": {c.value: {str(size): bw for size, bw in s.items()}
                      for c, s in series.items()},
               "counters": {r["config"].value: r["counters"]
                            for r in results}}
    problems = [p for r in results for p in r["problems"]]
    return series, outputs, problems, sum(r["messages"] for r in results)


def _pp_eager_finish(results) -> RoundOut:
    series, outputs, problems, ops = _pingpong_finish(results)
    for size in EAGER_SIZES:
        base = series[LINUX][size]
        for config in (MCK, HFI):
            if abs(series[config][size] / base - 1) > 0.01:
                problems.append(f"{config.value} differs from Linux by more "
                                f"than 1% at {size} B")
    small, large = EAGER_SIZES[0], EAGER_SIZES[-1]
    return RoundOut(
        ops=ops, failed=0, outputs=outputs, problems=problems,
        # IMB latency is size / bandwidth, so the latency ratio
        # Linux / HFI1 is the bandwidth ratio HFI1 / Linux
        pico_vs_linux=series[HFI][small] / series[LINUX][small],
        lat_us=small / series[HFI][small] * 1e6,
        mbps=series[HFI][large] / 1e6)


def _pp_rndv_finish(results) -> RoundOut:
    series, outputs, problems, ops = _pingpong_finish(results)
    big = RNDV_SIZES[-1]
    hfi_gain = series[HFI][big] / series[LINUX][big]
    mck_gain = series[MCK][big] / series[LINUX][big]
    if not hfi_gain > 1.05:
        problems.append(f"McKernel+HFI1 / Linux at 4 MiB is {hfi_gain:.4f}, "
                        f"not above 1.05")
    if not mck_gain < 1:
        problems.append(f"McKernel / Linux at 4 MiB is {mck_gain:.4f}, "
                        f"not below 1")
    return RoundOut(ops=ops, failed=0, outputs=outputs, problems=problems,
                    pico_vs_linux=hfi_gain,
                    lat_us=big / series[HFI][big] * 1e6,
                    mbps=series[HFI][big] / 1e6)


def _pp_build(seed: int) -> None:
    for config in ALL_CONFIGS:
        build_machine(2, config, params=default_params(seed))


# -- chaos and storage cells -----------------------------------------------


def _chaos_params(seed: int):
    params = default_params(seed)
    return params.with_overrides(
        nic=replace(params.nic, sdma_engines=CHAOS_ENGINES))


def _storage_params(seed: int):
    params = default_params(seed)
    return params.with_overrides(
        blk=replace(params.blk, replicas=STORAGE_REPLICAS))


def subseeds(seed: int, name: str, n: int) -> List[int]:
    """``n`` independent seeds derived from the workload seed."""
    root = RngFactory(seed)
    return [root.spawn("bench", name, k).root_seed for k in range(n)]


def _cells_finish(cells, ops_per_cell: int, failed) -> RoundOut:
    """Shared finish of the chaos and storage rounds: one cell result per
    step, every OS configuration covered."""
    by_config = {c: [cell for cell in cells if cell.os_config is c]
                 for c in ALL_CONFIGS}
    goodput = {c: sum(cell.goodput for cell in cs) / len(cs)
               for c, cs in by_config.items()}
    outputs = {c.value: [{k: v for k, v in vars(cell).items()
                          if k != "os_config"} for cell in cs]
               for c, cs in by_config.items()}
    return RoundOut(ops=ops_per_cell * len(cells),
                    failed=sum(map(failed, cells)), outputs=outputs,
                    problems=[v for cell in cells for v in cell.violations],
                    pico_vs_linux=goodput[HFI] / goodput[LINUX],
                    lat_us=0.0, mbps=goodput[HFI] / 1e6)


def _chaos_steps(seed: int) -> List[Step]:
    return [lambda c=c, s=s: chaos._run_cell(c, CHAOS_RATE, CHAOS_MESSAGES,
                                             params=_chaos_params(s))
            for s in subseeds(seed, "chaos", CHAOS_SUBSEEDS)
            for c in ALL_CONFIGS]


def _chaos_finish(cells) -> RoundOut:
    return _cells_finish(cells, CHAOS_MESSAGES,
                         lambda cell: cell.failed_typed)


def _chaos_build(seed: int) -> None:
    for config in ALL_CONFIGS:
        build_machine(2, config, params=_chaos_params(seed))


def _storage_steps(seed: int) -> List[Step]:
    return [lambda c=c: storage._run_cell(c, STORAGE_RATE, STORAGE_WRITES,
                                          params=_storage_params(seed))
            for c in ALL_CONFIGS]


def _storage_finish(cells) -> RoundOut:
    # an acked write whose read-back failed typed is not intact either
    return _cells_finish(cells, STORAGE_WRITES,
                         lambda cell: cell.failed_typed + cell.reads_typed)


def _storage_build(seed: int) -> None:
    for config in ALL_CONFIGS:
        build_machine(1, config, params=_storage_params(seed))


# -- macro figures -----------------------------------------------------------


def _macro_steps(seed: int) -> List[Step]:
    params = default_params(seed)
    return ([lambda run=run: run(params=params) for run in MACRO_SCALING]
            + [lambda run=run: run(params=params)
               for _, run in MACRO_BREAKDOWNS])


def _macro_finish(results) -> RoundOut:
    figures = results[:len(MACRO_SCALING)]
    breakdowns = dict(zip((app for app, _ in MACRO_BREAKDOWNS),
                          results[len(MACRO_SCALING):]))
    problems = []
    for fig in figures:
        for config in ALL_CONFIGS:
            for n, rel in fig.relative[config].items():
                if not (math.isfinite(rel) and rel > 0):
                    problems.append(f"{fig.app} {config.value} {n} nodes: "
                                    f"relative FOM {rel}")
    tops = [fig.relative[HFI][fig.node_counts[-1]] for fig in figures]
    outputs = {
        "relative": {fig.app: {c.value: {str(n): v for n, v in
                                         fig.relative[c].items()}
                               for c in ALL_CONFIGS} for fig in figures},
        "breakdown": {app: {"ratio": b.kernel_time_ratio,
                            "mckernel": b.mckernel.shares,
                            "mckernel_hfi": b.mckernel_hfi.shares}
                      for app, b in breakdowns.items()}}
    # one simulate_app call per (config, node count), two per breakdown
    calls = sum(len(fig.raw) for fig in figures) + 2 * len(breakdowns)
    return RoundOut(ops=calls, failed=0, outputs=outputs, problems=problems,
                    pico_vs_linux=sum(tops) / len(tops), lat_us=0.0,
                    mbps=0.0,
                    kernel_time_ratio={app: b.kernel_time_ratio
                                       for app, b in breakdowns.items()})


def _macro_build(seed: int) -> None:
    for config in ALL_CONFIGS:
        CommCostModel(default_params(seed), config)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("pp_eager",
             lambda seed: _pingpong_steps(seed, EAGER_SIZES, EAGER_REPS),
             _pp_eager_finish, _pp_build, cp_nbytes=EAGER_SIZES[0]),
    Workload("pp_rndv",
             lambda seed: _pingpong_steps(seed, RNDV_SIZES, RNDV_REPS),
             _pp_rndv_finish, _pp_build, cp_nbytes=RNDV_SIZES[-1]),
    Workload("chaos", _chaos_steps, _chaos_finish, _chaos_build),
    Workload("storage", _storage_steps, _storage_finish, _storage_build),
    Workload("macro", _macro_steps, _macro_finish, _macro_build),
)}
