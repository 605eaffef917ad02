"""Tests of the benchmark harness; they are not part of the tier-1 suite.

    python -m pytest bench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {m["name"]: m["unit"]
            for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def bench(out: Path, *args):
    """Run ``run.py`` with ``--out``; returns (process, record)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smokes(tmp_path_factory):
    """Two full smoke runs at the default seed."""
    tmp = tmp_path_factory.mktemp("smoke")
    return [bench(tmp / f"{i}.json", "--smoke") for i in range(2)]


def test_smoke_is_green_and_covers_every_metric(smokes):
    proc, record = smokes[0]
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for name, rec in record["workloads"].items():
        assert rec["correct"] and rec["failed"] == 0, rec["problems"]
        assert set(rec["metrics"]) == set(DECLARED), name


def test_every_name_is_declared_with_its_unit(smokes):
    for rec in smokes[0][1]["workloads"].values():
        for name, metric in rec["metrics"].items():
            assert NAME.match(name), name
            assert DECLARED[name] == metric["unit"], name
    assert all(NAME.match(w) for w in WORKLOADS)


def test_per_op_counts_repeat_exactly(smokes):
    (_, first), (_, second) = smokes
    for name, rec in first["workloads"].items():
        other = second["workloads"][name]
        assert rec["digest"] == other["digest"]
        for key, metric in rec["metrics"].items():
            if metric["unit"] == "count":
                assert metric["value"] == other["metrics"][key]["value"], key


def test_other_seed_changes_chaos_digest_and_stays_green(smokes, tmp_path):
    proc, rec = bench(tmp_path / "chaos.json", "--workload", "chaos",
                      "--seed", "7", "--smoke", "--trace", "0")
    assert proc.returncode == 0 and rec["correct"], rec["problems"]
    assert rec["digest"] != smokes[0][1]["workloads"]["chaos"]["digest"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.END_TO_END)


def test_wrong_expected_digest_fails_the_workload():
    rec = run.run_workload("pp_eager", trace=0, smoke=True,
                           expected={"pp_eager": "0" * 64})
    assert not rec["correct"]
    assert rec["failed"] == rec["attempted"] > 0
    assert any("expected" in p for p in rec["problems"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "macro", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_verdicts_and_exact_check():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [v * 1.2 for v in base], True,
                           0.05)[0] == "improved"
    assert compare.verdict(base, [v * 0.8 for v in base], True,
                           0.05)[0] == "worse"
    assert compare.verdict(base, [v * 1.01 for v in base], False,
                           0.05)[0] == "within bound"
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert compare.verdict(noisy, [v * 0.9 for v in noisy], True,
                           0.05)[0] == "unresolved"

    def record(digest, ratio):
        return {"workload": "macro", "seed": 1, "digest": digest,
                "metrics": {"sim_pico_vs_linux": {"value": ratio},
                            "ops_per_s": {"value": ratio * 2}}}

    assert compare.exact_mismatches([record("a", 1.0)],
                                    [record("a", 1.0)]) == (1, [])
    pairs, problems = compare.exact_mismatches([record("a", 1.0)],
                                               [record("b", 1.5)])
    assert pairs == 1 and len(problems) == 2
