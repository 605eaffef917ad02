"""Benchmark of the PicoDriver reproduction: simulator speed and results.

One workload, in this process::

    python3 bench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] [--out FILE]

Several workloads (none named = all five), each in its own fresh child
process, one after another::

    python3 bench/run.py [--workload W]... [--seed N] [--smoke] [--out FILE]

A run, for each workload:

1. set-up: launches a fresh interpreter that imports the workload code and
   builds one of each of its machines, five times (once with ``--smoke``);
2. timed phase: one warm-up round, then identical rounds until ``--seconds``
   have passed (one round with ``--smoke``), with tracing off; every step
   of a round is timed with ``time.perf_counter`` right after a pass of a
   fixed calibration loop and reported at a reference host speed (see
   ``CALIB_REF_S``);
3. traced pass (``--trace 1``): one round under cProfile and, for the
   ping-pong workloads, one round under span tracing (see ``layers.py``);
4. checks: the workload's oracles, one digest of the simulated outputs
   shared by every round (traced rounds included) and, at the default
   seed, equal to ``expected_digests.json``.

It prints every metric with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--out`` writes the full run record.  The exit code is 0 when every check
passed, 1 when one failed, 2 on a usage error or a missing ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20180611
DEFAULT_SECONDS = 10.0
SETUP_LAUNCHES = 5
#: iterations of the fixed pure-Python calibration loop (host.calib_ms)
CALIB_LOOP = 100_000
#: the calibration loop's time on the reference host, the one the bounds
#: in BENCHMARK.json were measured on.  Co-tenants make that host's speed
#: drift by 10-40% within seconds, and the loop slows with it, so every
#: host time is measured right after one pass of the loop and reported at
#: the reference speed: seconds * CALIB_REF_S / that pass's time.
CALIB_REF_S = 0.0065
#: glibc ``mallopt`` parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
#: end-to-end metrics; every other metric a run reports is per-layer
END_TO_END = ("ops_per_s", "setup_s", "peak_rss_mb", "sim_pico_vs_linux")
SCHEMA = "repro-bench/1"


def calib_s() -> float:
    """One pass of the fixed pure-Python calibration loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def timed(fn, calibs: List[float]):
    """Call ``fn`` right after one calibration pass (appended to
    ``calibs``); returns its result and its time in reference seconds."""
    c = calib_s()
    calibs.append(c)
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0) * CALIB_REF_S / c


def timed_round(workload, seed: int, calibs: List[float]):
    """One round whose steps are timed one by one, each right after its
    own calibration pass (the host's speed drifts within a round); returns
    the round and its time in reference seconds.

    Each step ends with a full cycle collection inside its timing, so a
    step pays for exactly the garbage it left, instead of whichever step a
    collection happens to fall in paying for its predecessors'.
    """
    total = 0.0

    def step_and_collect(step):
        out = step()
        gc.collect()
        return out

    def run(step):
        nonlocal total
        out, seconds = timed(lambda: step_and_collect(step), calibs)
        total += seconds
        return out

    return workload.run_round(seed, run), total


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` without)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_context(calibs: List[float]) -> dict:
    """Where the run happened, so records from other hosts compare."""
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"commit": git_commit(), "python": platform.python_version(),
            "nproc": nproc, "calib_ms": statistics.median(calibs) * 1e3,
            "calib_ref_ms": CALIB_REF_S * 1e3}


def fix_malloc_thresholds() -> None:
    """Pin glibc malloc's mmap and trim thresholds for this process.

    Every machine build allocates ~16 MB in large blocks.  glibc moves its
    mmap threshold with the history of frees, so depending on what ran
    before, those blocks either come from reused heap memory or from fresh
    mmaps that fault in ~4000 pages per build: the same run then takes
    1.5x as long.  Fixed thresholds make every run take the first path,
    the one a long-running process settles into.  No-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)   # glibc's maximum
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


def pin_to_current_cpu() -> None:
    """Keep this process, and the set-up launches it starts, on the CPU it
    runs on now, so the scheduler cannot move it to a CPU with cold
    caches in the middle of a run.  No-op without glibc."""
    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return
    sched_getcpu.argtypes = []
    sched_getcpu.restype = ctypes.c_int
    cpu = sched_getcpu()
    if cpu >= 0 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def child_env() -> dict:
    """Environment for child interpreters: ``src/`` on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(name: str, seed: int, launches: int,
                  calibs: List[float]) -> Dict[str, float]:
    """Median time of fresh set-up launches, plus the import and build
    times the launches measured themselves."""
    cmd = [sys.executable, str(BENCH / "setup_child.py"), name, str(seed)]
    walls, imports, builds = [], [], []
    for _ in range(launches):
        proc, wall = timed(lambda: subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=120), calibs)
        walls.append(wall)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up launch failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(probe["import_s"])
        builds.append(probe["build_ms"])
    return {"setup_s": statistics.median(walls),
            "import_s": statistics.median(imports),
            "build_ms": statistics.median(builds)}


def load_expected() -> Dict[str, str]:
    """The committed default-seed digest of every workload."""
    with open(BENCH / "expected_digests.json") as fh:
        return json.load(fh)["digests"]


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 seconds: float = DEFAULT_SECONDS, trace: int = 1,
                 smoke: bool = False,
                 expected: Optional[Dict[str, str]] = None) -> dict:
    """Run one workload in this process and return its run record.

    ``expected`` maps workload names to default-seed digests; it defaults
    to ``expected_digests.json`` and is only consulted at the default seed.
    """
    import layers
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[name]
    calibs: List[float] = []
    setup = measure_setup(name, seed, 1 if smoke else SETUP_LAUNCHES, calibs)

    ref = None if smoke else timed_round(workload, seed, [])[0]   # warm-up
    # what exists now (modules, caches) stays for the whole run: keep it
    # out of the collections the timed steps pay for
    gc.collect()
    gc.freeze()
    times: List[float] = []
    digests = set()
    start = time.perf_counter()
    while True:
        out, seconds_taken = timed_round(workload, seed, calibs)
        times.append(seconds_taken)
        digests.add(digest(out.outputs))
        if ref is None:
            ref = out
        if smoke or time.perf_counter() - start >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.unfreeze()
    round_s = statistics.median(times)
    rounds_run = len(times) + (0 if smoke else 1)

    the_digest = digest(ref.outputs)
    problems = list(ref.problems)
    if digests != {the_digest}:
        problems.append(f"rounds disagree: {len(digests | {the_digest})} "
                        f"distinct digests")
    metrics = {
        "ops_per_s": ((ref.ops - ref.failed) / round_s, "ops/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sim_pico_vs_linux": (ref.pico_vs_linux, "ratio"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.build_ms": (setup["build_ms"], "ms"),
    }
    if trace:
        gc.collect()
        (prof_out, stats, machines), traced_s = timed(
            lambda: layers.profile_round(workload, seed), calibs)
        traced = [prof_out]
        metrics.update(layers.layer_metrics(prof_out, stats, machines,
                                            round_s, traced_s))
        if workload.cp_nbytes:
            span_out, cp, cp_problems = layers.span_round(workload, seed)
            traced.append(span_out)
            problems.extend(cp_problems)
        else:
            cp = layers.cp_metrics({})
        metrics.update(cp)
        for out in traced:
            if digest(out.outputs) != the_digest:
                problems.append("a traced round's digest differs from the "
                                "untraced one")
        rounds_run += len(traced)

    if seed == DEFAULT_SEED:
        if expected is None:
            expected = load_expected()
        want = expected.get(name)
        if want != the_digest:
            problems.append(f"default-seed digest {the_digest} differs from "
                            f"the expected {want}")
    host = host_context(calibs)
    metrics["host.calib_ms"] = (host["calib_ms"], "ms")
    attempted = ref.ops * rounds_run
    failed = attempted if problems else ref.failed * rounds_run
    return {
        "schema": SCHEMA, "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed, "problems": problems,
        "digest": the_digest, "ops_per_round": ref.ops,
        "rounds": len(times), "setup_launches": 1 if smoke else SETUP_LAUNCHES,
        "round_s": {"median": round_s, "min": min(times), "max": max(times)},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "host": host,
    }


def result_line(record: dict) -> dict:
    """The last line: the end-to-end metrics, or with tracing the
    per-layer ones."""
    metrics = {k: v for k, v in record["metrics"].items()
               if (k in END_TO_END) != bool(record["trace"])}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict) -> None:
    """Human-readable lines: every metric with its unit, then problems."""
    name = record["workload"]
    print(f"{name}: {record['rounds']} timed rounds of "
          f"{record['ops_per_round']} ops, median "
          f"{record['round_s']['median']:.4f} s; digest "
          f"{record['digest'][:16]}")
    for key, m in record["metrics"].items():
        print(f"  {name}  {key} = {m['value']:.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"  {name}  PROBLEM: {problem}")


def run_all(names: List[str], args) -> dict:
    """Run each workload in a fresh child process; merge the records."""
    records = {}
    with tempfile.TemporaryDirectory(dir=BENCH, prefix="tmp-") as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            if args.smoke:
                cmd.append("--smoke")
            print(f"bench: running {name}", file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, timeout=900,
                                  capture_output=True, text=True)
            if not out.exists():
                raise RuntimeError(f"workload {name} wrote no record:\n"
                                   f"{proc.stderr}")
            records[name] = json.loads(out.read_text())
    return {"schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
            "correct": all(r["correct"] for r in records.values()),
            "workloads": records}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the PicoDriver reproduction.")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="one round and one set-up launch per workload")
    parser.add_argument("--out", help="write the run record (JSON) here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"bench: no reproduction sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose "
                     f"from {', '.join(WORKLOADS)}")

    if len(args.workload) == 1:
        fix_malloc_thresholds()
        pin_to_current_cpu()
        record = run_workload(args.workload[0], args.seed, args.seconds,
                              args.trace, args.smoke)
        print_record(record)
        line = result_line(record)
    else:
        record = run_all(args.workload or list(WORKLOADS), args)
        line = {"correct": record["correct"], "attempted": 0, "failed": 0,
                "metrics": {}}
        for name, rec in record["workloads"].items():
            print_record(rec)
            line["attempted"] += rec["attempted"]
            line["failed"] += rec["failed"]
            line["metrics"].update(
                {f"{name}.{k}": v for k, v in rec["metrics"].items()
                 if k in END_TO_END})
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
