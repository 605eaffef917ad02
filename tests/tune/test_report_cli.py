"""The report renderer, the BENCH_TUNE artifact, and ``repro tune``."""

import json
import os

from repro.tune import run_campaign
from repro.tune import report
from repro.tune.cli import cmd_tune
from repro.tune.cache import code_fingerprint


def campaign():
    return run_campaign("synthetic", budget=6, batch=3, seed=11)


def test_render_report_carries_trajectory_and_best_point():
    result = campaign()
    text = report.render_report(result)
    assert "workload=synthetic" in text and "best-so-far" in text
    assert f"best: trial {result.best.index}" in text
    assert "point.sdma_engines" in text
    assert text.count("\n") >= 6 + 5   # table rows + header/best block


def test_bench_payload_schema():
    result = campaign()
    payload = report.bench_payload(result)
    assert payload["schema"] == report.SCHEMA
    assert payload["code_version"] == code_fingerprint()
    assert payload["campaign"]["workload"] == "synthetic"
    assert payload["trajectory"] == result.trajectory
    assert len(payload["scalars"]) == 6
    assert payload["best"]["scalar"] == result.best.fitness.scalar
    assert "baselines" not in payload
    json.dumps(payload)  # must be JSON-serializable as-is


def test_cmd_tune_smoke_synthetic_writes_the_artifact(tmp_path, capsys):
    out = str(tmp_path / "BENCH_TUNE.json")
    cache = str(tmp_path / "cache" / "c.jsonl")
    argv = ["synthetic", "--smoke", "--budget", "6", "--workers", "1",
            "--seed", "3", "--out", out, "--cache", cache]
    assert cmd_tune(argv) == 0
    text = capsys.readouterr().out
    assert "PicoTune campaign" in text and "wrote" in text
    payload = json.load(open(out))
    assert payload["schema"] == report.SCHEMA
    assert payload["campaign"]["budget"] == 6
    assert os.path.exists(cache)
    # resume: the whole budget answers from the cache
    assert cmd_tune(argv + ["--resume"]) == 0
    resumed = json.load(open(out))
    assert resumed["campaign"]["cache_hits"] == 6
    assert resumed["campaign"]["evaluations_run"] == 0
    assert resumed["best"] == payload["best"]
    assert resumed["trajectory"] == payload["trajectory"]


def test_cmd_tune_rejects_bad_inputs(capsys):
    assert cmd_tune(["hpl"]) == 2
    assert cmd_tune(["synthetic", "--search", "annealing"]) == 2
    assert cmd_tune(["synthetic", "--budget"]) == 2
    assert cmd_tune(["synthetic", "--frobnicate"]) == 2
    out = capsys.readouterr().out
    assert "usage" in out and "unknown" in out


def test_main_dispatches_tune(tmp_path, capsys):
    from repro.__main__ import main
    out = str(tmp_path / "b.json")
    cache = str(tmp_path / "c.jsonl")
    assert main(["tune", "synthetic", "--budget", "2", "--batch", "2",
                 "--workers", "1", "--out", out, "--cache", cache]) == 0
    assert "PicoTune campaign" in capsys.readouterr().out
    assert main([]) == 0
    assert "tune" in capsys.readouterr().out
