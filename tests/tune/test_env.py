"""The gym-like environment: purity, probe bookkeeping, and the
disabled-identity contract (tuning off perturbs nothing)."""

import pytest

from repro.config import OSConfig
from repro.tune import EnvConfig, EvalJob, Fitness, PicoEnv, evaluate_job
from repro.tune.env import EnvError
from repro.tune.space import default_space


def mid_point():
    space = default_space()
    point = {a.name: a.values[len(a.values) // 2] for a in space.axes}
    point["os_config"] = "mckernel_hfi"
    return point


def test_unknown_workload_is_a_typed_error():
    with pytest.raises(EnvError, match="unknown tune workload"):
        PicoEnv("hpl")


def test_invalid_point_is_rejected_before_simulation():
    env = PicoEnv("synthetic")
    with pytest.raises(Exception, match="misses axes"):
        env.evaluate({"sdma_engines": 4}, seed=1)


def test_synthetic_evaluation_is_pure():
    env = PicoEnv("synthetic")
    point = mid_point()
    a = env.evaluate(point, seed=11)
    b = env.evaluate(point, seed=11)
    assert a == b
    assert env.evaluate(point, seed=12) != a


def test_pingpong_evaluation_reports_the_curve_and_probe_counts():
    env = PicoEnv("pingpong", config=EnvConfig.smoke())
    fitness = env.evaluate(mid_point(), seed=42)
    sizes = EnvConfig.smoke().pingpong_sizes
    assert fitness.scalar == fitness.metric(f"bw_{max(sizes)}")
    assert fitness.metric("latency_small") > 0
    # the probe saw exactly one two-node machine being built
    assert fitness.metric("machines") == 1.0
    assert fitness.metric("nodes") == 2.0
    assert fitness.violations == ()


def test_probe_never_leaks_past_an_evaluation():
    """The ``tune`` slot is clear again afterwards (asserted by the
    suite-wide ``planes_off`` fixture)."""
    env = PicoEnv("pingpong", config=EnvConfig.smoke())
    env.evaluate(mid_point(), seed=42)


def test_probe_restored_even_when_the_workload_raises():
    env = PicoEnv("synthetic")
    env.space = None  # force a failure inside evaluate
    with pytest.raises(Exception):
        env.evaluate(mid_point(), seed=1)


def test_disabled_identity_pingpong_is_bit_identical():
    """With no probe installed, a plain experiment run is bit-identical
    before and after a tune evaluation (the figures never move)."""
    from repro.apps.imb import PingPong
    from repro.experiments.common import build_machine

    def plain_run():
        machine = build_machine(2, OSConfig.MCKERNEL_HFI)
        return PingPong(machine, repetitions=1, warmup=1).run([16384])

    before = plain_run()
    PicoEnv("pingpong", config=EnvConfig.smoke()).evaluate(
        mid_point(), seed=42)
    assert plain_run() == before


def test_fitness_round_trips_through_dict_form():
    fitness = Fitness(scalar=2.5, metrics=(("a", 1.0), ("b", 2.0)),
                      violations=("late",))
    assert Fitness.from_dict(fitness.to_dict()) == fitness
    with pytest.raises(KeyError):
        fitness.metric("c")


def test_env_config_smoke_trims_the_sizes():
    smoke, full = EnvConfig.smoke(), EnvConfig()
    assert len(smoke.pingpong_sizes) < len(full.pingpong_sizes)
    assert smoke.pingpong_repetitions < full.pingpong_repetitions
    assert smoke.to_dict() != full.to_dict()


def test_evaluate_job_matches_a_direct_evaluation():
    space = default_space()
    point = mid_point()
    job = EvalJob(index=3, point=space.canonical(point), seed=9,
                  workload="synthetic", config=EnvConfig())
    index, fitness = evaluate_job(job)
    assert index == 3
    assert fitness == PicoEnv("synthetic").evaluate(point, seed=9)
