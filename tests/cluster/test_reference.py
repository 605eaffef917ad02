"""The macro model against its per-rank oracle (``reference.py``).

``simulate_app`` keeps one float clock while every rank holds the same
time and runs each phase from a plan built once per run; the oracle keeps
every rank's clock in an array and recomputes every phase each
iteration.  Both run here, in one process, and must agree exactly on
every ``MacroResult`` field.  The profile dicts are compared as item
lists, so the order their keys entered them counts too.  No hash is
committed: full-precision bits depend on the numpy version and its SIMD
path, which differ between the supported Pythons.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.apps.base import (AppSpec, CollectivePhase, FileIO, HaloExchange,
                             MemChurn, SweepPhase)
from repro.cluster import simulate_app
from repro.config import ALL_CONFIGS
from repro.experiments.scaling import DEFAULT_NODE_COUNTS
from repro.params import default_params
from repro.units import KiB

from .reference import simulate_app as per_rank_app
from .test_robustness import (collective_strategy, fileio_strategy,
                              halo_strategy, memchurn_strategy,
                              spec_strategy_over, sweep_strategy)

SEEDS = (default_params().seed, 1)


def observed(result):
    """Every field of ``result``; each dict as its list of items."""
    out = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        out[f.name] = list(value.items()) if isinstance(value, dict) else value
    return out


def assert_same(spec, n_nodes, config, params=None):
    ours = simulate_app(spec, n_nodes, config, params=params)
    oracle = per_rank_app(spec, n_nodes, config, params=params)
    assert observed(ours) == observed(oracle), (spec.name, n_nodes, config)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", sorted(ALL_APPS))
def test_shipped_apps_match_the_per_rank_model(app, seed):
    spec = ALL_APPS[app]
    params = default_params(seed)
    for config in ALL_CONFIGS:
        for n in DEFAULT_NODE_COUNTS:
            if n >= spec.min_nodes:
                assert_same(spec, n, config, params)


def _spec(*phases, imbalance_cv=0.05, ranks_per_node=8):
    return AppSpec(name="edge", ranks_per_node=ranks_per_node,
                   threads_per_rank=2, iterations=3, compute_seconds=2e-3,
                   phases=phases, imbalance_cv=imbalance_cv)


@pytest.mark.parametrize("spec", [
    # a collective that never runs leaves the spread where it is
    _spec(CollectivePhase("barrier", count=0), HaloExchange(6, 96 * KiB)),
    _spec(HaloExchange(6, 96 * KiB, rounds=0), CollectivePhase("scan")),
    # flat from MPI_Init to the end on the LWK configs
    _spec(HaloExchange(6, 320 * KiB, rounds=2), SweepPhase(3, 16 * KiB),
          imbalance_cv=0.0),
    # a sweep too short to count a call: Start/Request_free get no count
    _spec(SweepPhase(1, 256 * KiB, active_fraction=0.25),
          CollectivePhase("allgather", nbytes=128 * KiB, count=4, scope=8)),
    # one rank: every collective has zero rounds
    _spec(CollectivePhase("allreduce", count=3), MemChurn(2, 2 * 1024 * KiB),
          FileIO(2), ranks_per_node=1),
], ids=["count0", "rounds0", "flat", "short-sweep", "one-rank"])
def test_edge_phases_match_the_per_rank_model(spec):
    for config in ALL_CONFIGS:
        for n in (1, 4):
            assert_same(spec, n, config)


wide_collective = collective_strategy(count=st.integers(1, 25),
                                      scope=st.sampled_from([0, 8, 16]))
wide_phase = st.one_of(halo_strategy, sweep_strategy, wide_collective,
                       memchurn_strategy, fileio_strategy)
wide_spec = spec_strategy_over(
    st.tuples(wide_collective, wide_phase, wide_phase),
    imbalance_cv=st.one_of(st.just(0.0), st.floats(0.0, 0.2)))


@given(spec=wide_spec, n_nodes=st.sampled_from([1, 2, 16]),
       seed=st.sampled_from(SEEDS))
@settings(max_examples=60, deadline=None)
def test_any_spec_matches_the_per_rank_model(spec, n_nodes, seed):
    ranks = spec.ranks_for(n_nodes)
    assume(all(p.scope <= ranks for p in spec.phases
               if isinstance(p, CollectivePhase)))
    for config in ALL_CONFIGS:
        assert_same(spec, n_nodes, config, default_params(seed))
