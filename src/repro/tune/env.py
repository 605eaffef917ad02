"""The gym-like environment: ``evaluate(point, seed) -> Fitness``.

:class:`PicoEnv` wraps the repo's detailed-simulator workloads —
fig4-style ping-pong bandwidth, the chaos goodput-under-faults cell,
the replicated-storage cell — into one scalar-plus-vector fitness
surface over a :class:`~repro.tune.space.ParamSpace`.  Every
evaluation builds fresh machines from the materialized design, so an
evaluation is a pure function of ``(point, seed, workload config)``:
that purity is what lets the sharded runner promise bit-identical
parallel/serial results and the cache reuse entries across campaigns.

A ``synthetic`` workload (a closed-form deterministic landscape over
the encoded vector, no simulator) keeps search/runner/cache tests
fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..config import planes
from ..errors import ReproError
from ..sim import RngFactory
from ..units import KiB, MiB
from .space import ParamSpace, default_space


class EnvError(ReproError):
    """Raised for unknown workloads or malformed evaluation requests."""


@dataclass(frozen=True)
class EnvConfig:
    """Per-workload evaluation sizes (kept small: fitness shape, not
    absolute figures, drives the search)."""

    #: ping-pong message sizes; the largest one's bandwidth is the scalar
    pingpong_sizes: Tuple[int, ...] = (16 * KiB, 256 * KiB, 1 * MiB)
    pingpong_repetitions: int = 2
    #: uniform fault rate and message count of the chaos cell
    chaos_rate: float = 0.01
    chaos_messages: int = 12
    #: storage cell: uniform fault rate, write count, replica count
    storage_rate: float = 0.01
    storage_writes: int = 12
    storage_replicas: int = 3

    @classmethod
    def smoke(cls) -> "EnvConfig":
        """The trimmed CI configuration (one rep, fewer messages)."""
        return cls(pingpong_sizes=(16 * KiB, 256 * KiB),
                   pingpong_repetitions=1, chaos_messages=6,
                   storage_writes=6)

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable form (part of the cache key)."""
        return {"pingpong_sizes": list(self.pingpong_sizes),
                "pingpong_repetitions": self.pingpong_repetitions,
                "chaos_rate": self.chaos_rate,
                "chaos_messages": self.chaos_messages,
                "storage_rate": self.storage_rate,
                "storage_writes": self.storage_writes,
                "storage_replicas": self.storage_replicas}


@dataclass(frozen=True)
class Fitness:
    """One evaluation's outcome: a scalar to maximize plus the vector
    of named metrics behind it (and any contract violations, which
    zero the scalar)."""

    scalar: float
    metrics: Tuple[Tuple[str, float], ...] = ()
    violations: Tuple[str, ...] = ()

    def metric(self, name: str) -> float:
        """The named metric (KeyError if absent)."""
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(name)

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable form (the cache-entry payload)."""
        return {"scalar": self.scalar,
                "metrics": {k: v for k, v in self.metrics},
                "violations": list(self.violations)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Fitness":
        """Invert :meth:`to_dict` (cache loads)."""
        return cls(scalar=float(data["scalar"]),
                   metrics=tuple(sorted(
                       (str(k), float(v))
                       for k, v in dict(data["metrics"]).items())),
                   violations=tuple(str(v) for v in data["violations"]))


@dataclass
class EvalProbe:
    """The ``tune`` plane's machine observer (see lint rule PD016).

    Installed as ``planes(tune=probe)`` for the duration of one
    evaluation; :class:`~repro.experiments.common.
    Machine` calls :meth:`on_machine_built` at the end of
    construction, letting the environment count machines and nodes
    without the experiments layer importing anything from tune.
    """

    machines_built: int = 0
    nodes_built: int = 0
    os_configs: List[str] = field(default_factory=list)

    def on_machine_built(self, machine) -> None:
        """Record one fully-constructed machine."""
        self.machines_built += 1
        self.nodes_built += len(machine.nodes)
        self.os_configs.append(machine.os_config.value)


class PicoEnv:
    """The environment: a workload, its config, and the design space."""

    def __init__(self, workload: str, config: Optional[EnvConfig] = None,
                 space: Optional[ParamSpace] = None):
        if workload not in WORKLOADS:
            raise EnvError(f"unknown tune workload {workload!r}; choose "
                           f"from {', '.join(sorted(WORKLOADS))}")
        self.workload = workload
        self.config = config if config is not None else EnvConfig()
        self.space = space if space is not None else default_space()

    def evaluate(self, point: Dict[str, object], seed: int) -> Fitness:
        """Evaluate one design point under one seed.

        Builds the design's machines behind a freshly-installed
        :class:`EvalProbe` (removed again when the evaluation ends, so
        nothing leaks into later unrelated runs) and returns the
        workload's :class:`Fitness`.
        """
        self.space.validate(point)
        probe = EvalProbe()
        with planes(tune=probe):
            fitness = WORKLOADS[self.workload](self, point, seed)
        if probe.machines_built:
            fitness = replace(fitness, metrics=fitness.metrics + (
                ("machines", float(probe.machines_built)),
                ("nodes", float(probe.nodes_built))))
        return fitness


# -- workloads ---------------------------------------------------------------

def _eval_pingpong(env: PicoEnv, point: Dict[str, object],
                   seed: int) -> Fitness:
    """Fig4-style two-node ping-pong: scalar is the largest-size
    bandwidth; metrics carry the whole curve plus the smallest-size
    one-way latency."""
    from ..apps.imb import PingPong
    from ..experiments.common import build_machine
    cfg = env.config
    design = env.space.materialize(point, seed=seed)
    machine = build_machine(2, design.os_config, params=design.params)
    bandwidth = PingPong(machine, repetitions=cfg.pingpong_repetitions,
                         warmup=1).run(cfg.pingpong_sizes)
    sizes = sorted(bandwidth)
    metrics = [(f"bw_{size}", bandwidth[size]) for size in sizes]
    metrics.append(("latency_small", sizes[0] / bandwidth[sizes[0]]))
    return Fitness(scalar=bandwidth[sizes[-1]],
                   metrics=tuple(sorted(metrics)))


def _eval_chaos(env: PicoEnv, point: Dict[str, object],
                seed: int) -> Fitness:
    """One chaos cell at the configured fault rate: scalar is goodput
    of intact delivery, zeroed on any integrity violation."""
    from ..experiments.chaos import _run_cell
    cfg = env.config
    design = env.space.materialize(point, seed=seed)
    cell = _run_cell(design.os_config, cfg.chaos_rate, cfg.chaos_messages,
                     params=design.params)
    metrics = (("delivered", float(cell.delivered)),
               ("failed_typed", float(cell.failed_typed)),
               ("goodput", cell.goodput))
    scalar = 0.0 if cell.violations else cell.goodput
    return Fitness(scalar=scalar, metrics=tuple(sorted(metrics)),
                   violations=tuple(cell.violations))


def _eval_storage(env: PicoEnv, point: Dict[str, object],
                  seed: int) -> Fitness:
    """One replicated-storage cell: scalar is acked-write goodput,
    zeroed on any contract violation."""
    from ..experiments.storage import _run_cell
    cfg = env.config
    design = env.space.materialize(point, seed=seed)
    params = design.params.with_overrides(
        blk=replace(design.params.blk, replicas=cfg.storage_replicas))
    cell = _run_cell(design.os_config, cfg.storage_rate,
                     cfg.storage_writes, params=params)
    metrics = (("acked", float(cell.acked)),
               ("failed_typed", float(cell.failed_typed)),
               ("goodput", cell.goodput))
    scalar = 0.0 if cell.violations else cell.goodput
    return Fitness(scalar=scalar, metrics=tuple(sorted(metrics)),
                   violations=tuple(cell.violations))


def _eval_synthetic(env: PicoEnv, point: Dict[str, object],
                    seed: int) -> Fitness:
    """A closed-form landscape over the encoded vector (no simulator):
    per-axis quadratic bowls with a deterministic seed-keyed jitter.
    Exists so search/runner/cache tests run in milliseconds."""
    vector = env.space.encode(point)
    value = 0.0
    for axis, idx in zip(env.space.axes, vector):
        span = max(len(axis.values) - 1, 1)
        # bowl peaking at the middle of each axis
        x = idx / span
        value += 1.0 - (2.0 * x - 1.0) ** 2
    rng = RngFactory(seed).stream("tune", "synthetic", *vector)
    jitter = float(rng.normal(0.0, 0.01))
    return Fitness(scalar=value + jitter,
                   metrics=(("jitter", jitter), ("landscape", value)))


#: workload registry: name -> (env, point, seed) -> Fitness
WORKLOADS = {"pingpong": _eval_pingpong, "chaos": _eval_chaos,
             "storage": _eval_storage, "synthetic": _eval_synthetic}


# -- the picklable shard-job form --------------------------------------------

@dataclass(frozen=True)
class EvalJob:
    """One evaluation request in its process-portable form: the
    canonical point tuple plus everything needed to rebuild the
    environment in a worker (the default space is implied)."""

    index: int
    point: Tuple[Tuple[str, object], ...]
    seed: int
    workload: str
    config: EnvConfig


def evaluate_job(job: EvalJob) -> Tuple[int, Fitness]:
    """Run one :class:`EvalJob` (the shard runner's map function).

    Rebuilds a :class:`PicoEnv` over the default space in whatever
    process this lands in; returns ``(index, fitness)`` so merged
    results can be reassembled in submission order.
    """
    env = PicoEnv(job.workload, config=job.config)
    return job.index, env.evaluate(dict(job.point), job.seed)
