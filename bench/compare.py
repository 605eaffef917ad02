"""Compare two sets of benchmark run records.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are directories of run records
written by ``run.py --out``, one workload or all of them per file.  For
every end-to-end metric in ``BENCHMARK.json`` and every workload, one row
gives each side's median and quartiles, the share of (A, B) run pairs that
B wins (ties count for neither), and a verdict against the metric's bound:

* ``improved`` -- B wins at least 9 of 10 pairs and the medians differ by
  more than A's interquartile distance;
* ``unresolved`` -- A's own spread (interquartile distance / median) is
  wider than the bound, and B does not read better on every pair;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``within bound`` -- otherwise.

Then every pair of records with the same workload and seed must agree
exactly on the digest and on every simulated metric, and the share of
operations not delivered intact is printed for each side.  The exit code
is 1 on any ``worse`` verdict, exact mismatch or higher failed share in
B, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: metrics that are simulated results, so equal code gives equal values
SIMULATED = ("sim_", "result.", "cp.", "cluster.kernel_time_ratio.",
             "hw.sdma_desc_kib.", "ihk.cpu_wait_us")


def load_records(directory: str) -> List[dict]:
    """Every single-workload record under ``directory``."""
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        records.extend(data["workloads"].values() if "workloads" in data
                       else [data])
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], higher: bool,
            bound: float) -> Tuple[str, float, float]:
    """Returns (verdict, gain, wins): gain is B's median change as a share
    of A's, positive when better; wins is the share of pairs B wins."""
    def better(x, y):
        return x > y if higher else x < y

    pairs = [(x, y) for x in a for y in b]
    wins = sum(better(y, x) for x, y in pairs) / len(pairs)
    a1, a_med, a3 = quartiles(a)
    b_med = quartiles(b)[1]
    gain = (b_med - a_med) / a_med * (1 if higher else -1)
    if wins >= 0.9 and gain > 0 and abs(b_med - a_med) > a3 - a1:
        return "improved", gain, wins
    if (a3 - a1) / a_med > bound and wins < 1:
        return "unresolved", gain, wins
    if -gain > bound:
        return "worse", gain, wins
    return "within bound", gain, wins


def exact_mismatches(a: List[dict], b: List[dict]) -> Tuple[int, List[str]]:
    """Pairs of records compared, and every disagreement between records
    of the same workload and seed on the digest or a simulated metric."""
    by_key: Dict[tuple, dict] = {(r["workload"], r["seed"]): r for r in a}
    pairs, problems = 0, []
    for rb in b:
        ra = by_key.get((rb["workload"], rb["seed"]))
        if ra is None:
            continue
        pairs += 1
        where = f"{rb['workload']} seed {rb['seed']}"
        if ra["digest"] != rb["digest"]:
            problems.append(f"{where}: digest {ra['digest'][:16]} != "
                            f"{rb['digest'][:16]}")
        for name, m in ra["metrics"].items():
            other = rb["metrics"].get(name)
            if name.startswith(SIMULATED) and other is not None \
                    and other["value"] != m["value"]:
                problems.append(f"{where}: {name} {m['value']!r} != "
                                f"{other['value']!r}")
    return pairs, problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A_DIR B_DIR", file=sys.stderr)
        return 2
    a, b = (load_records(d) for d in argv)
    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    worse = 0
    print(f"{'metric':18s} {'workload':9s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'B wins':>6s} "
          f"{'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        for workload in workloads:
            va = [r["metrics"][name]["value"] for r in a
                  if r["workload"] == workload and name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b
                  if r["workload"] == workload and name in r["metrics"]]
            if not va or not vb:
                continue
            label, gain, wins = verdict(va, vb, higher, metric["bound"])
            worse += label == "worse"
            cols = []
            for vals in (va, vb):
                q1, med, q3 = quartiles(vals)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}")
            print(f"{name:18s} {workload:9s} {cols[0]:>32s} {cols[1]:>32s} "
                  f"{gain:+8.2%} {wins:6.2f} {metric['bound']:6.0%}  {label}")
    pairs, problems = exact_mismatches(a, b)
    print(f"\nexact check over {pairs} same-seed record pairs: "
          f"{'identical' if not problems else f'{len(problems)} mismatches'}")
    for problem in problems:
        print(f"  {problem}")
    failed = [failed_frac(rs) for rs in (a, b)]
    print(f"failed_frac: A {failed[0]:.4g}, B {failed[1]:.4g}")
    return 1 if worse or problems or failed[1] > failed[0] else 0


def failed_frac(records: List[dict]) -> float:
    """Operations not delivered intact over operations attempted."""
    return (sum(r["failed"] for r in records)
            / max(1, sum(r["attempted"] for r in records)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
