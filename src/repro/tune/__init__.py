"""PicoTune: design-space exploration over the detailed simulator.

The repo's ablation axes (SDMA engine count, PIO/SDMA threshold,
descriptor cap, TID window, offload batch size, OS cores, OS config)
become a typed :class:`~repro.tune.space.ParamSpace`; the simulator
becomes a gym-like environment (:class:`~repro.tune.env.PicoEnv`)
whose ``evaluate(point, seed)`` returns scalar+vector
:class:`~repro.tune.env.Fitness`; pluggable seed-deterministic search
(:mod:`repro.tune.search`) drives it through a sharded
``multiprocessing`` runner (:mod:`repro.tune.runner`) whose merged
results are bit-identical to a serial run, backed by a resumable
on-disk cache (:mod:`repro.tune.cache`) keyed on
(params, seed, workload, code-version).  Each evaluation puts an
:class:`~repro.tune.env.EvalProbe` in the ``tune`` slot of
:data:`repro.config.PLANES`, and every machine built meanwhile hands
itself to the probe once construction ends (lint rule PD016 gates the
call on the ``probe`` handle).

This is the ArchGym pattern over the PicoDriver reproduction: the
"millions of scenarios" workload that justifies the sweep runner, and
the source of the repo's tracked perf trajectory
(``BENCH_PICOTUNE.json``).  See DESIGN.md section 15.
"""

from .cache import CacheEntryError, CacheError, ResultsCache, code_fingerprint
from .env import EnvConfig, EvalJob, EvalProbe, Fitness, PicoEnv, evaluate_job
from .runner import CampaignResult, Trial, map_shards, run_campaign
from .search import (BayesLite, EvolutionarySearch, GridSearch, RandomSearch,
                     SearchError, SearchStrategy, make_search)
from .space import Axis, Design, ParamSpace, SpaceError, default_space

__all__ = [
    "Axis",
    "BayesLite",
    "CacheEntryError",
    "CacheError",
    "CampaignResult",
    "Design",
    "EnvConfig",
    "EvalJob",
    "EvalProbe",
    "EvolutionarySearch",
    "Fitness",
    "GridSearch",
    "ParamSpace",
    "PicoEnv",
    "RandomSearch",
    "ResultsCache",
    "SearchError",
    "SearchStrategy",
    "SpaceError",
    "Trial",
    "code_fingerprint",
    "default_space",
    "evaluate_job",
    "make_search",
    "map_shards",
    "run_campaign",
]
