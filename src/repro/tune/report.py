"""Trajectory/best-fitness reporting and the ``BENCH_TUNE.json`` artifact.

The JSON schema (``picotune/1``, documented in EXPERIMENTS.md) records
one campaign: every later change can regenerate the deterministic smoke
campaign and diff it against the committed ``BENCH_PICOTUNE.json``.
"""

from __future__ import annotations

import json
from typing import Dict

from .cache import code_fingerprint
from .runner import CampaignResult

#: artifact schema version: bump on any incompatible payload change
SCHEMA = "picotune/1"


def render_report(result: CampaignResult) -> str:
    """Human-readable campaign report: header, trajectory, best point."""
    lines = [f"PicoTune campaign: workload={result.workload} "
             f"search={result.search} budget={result.budget} "
             f"seed={result.seed} workers={result.workers}",
             f"  {result.evaluations_run} evaluated, "
             f"{result.cache_hits} from cache, "
             f"{result.wall_seconds:.2f}s wall",
             "", "trial  scalar      best-so-far  cached  point"]
    trajectory = result.trajectory
    for t, best in zip(result.trials, trajectory):
        point = ", ".join(f"{k}={v}" for k, v in t.point)
        lines.append(f"{t.index:>5}  {t.fitness.scalar:>10.4g}  "
                     f"{best:>11.4g}  {'yes' if t.cached else 'no':>6}  "
                     f"{point}")
    best = result.best
    lines.append("")
    lines.append(f"best: trial {best.index}, scalar "
                 f"{best.fitness.scalar:.6g}")
    for name, value in best.fitness.metrics:
        lines.append(f"  {name} = {value:.6g}")
    for k, v in best.point:
        lines.append(f"  point.{k} = {v}")
    if best.fitness.violations:
        lines.append(f"  violations: {len(best.fitness.violations)}")
    return "\n".join(lines)


def bench_payload(result: CampaignResult) -> Dict[str, object]:
    """The ``picotune/1`` artifact: campaign summary + trajectory,
    JSON-stable for committing and diffing."""
    best = result.best
    return {
        "schema": SCHEMA,
        "code_version": code_fingerprint(),
        "campaign": {
            "workload": result.workload,
            "search": result.search,
            "budget": result.budget,
            "seed": result.seed,
            "workers": result.workers,
            "evaluations_run": result.evaluations_run,
            "cache_hits": result.cache_hits,
        },
        "best": {
            "trial": best.index,
            "scalar": best.fitness.scalar,
            "point": {k: v for k, v in best.point},
            "metrics": {k: v for k, v in best.fitness.metrics},
        },
        "trajectory": result.trajectory,
        "scalars": [t.fitness.scalar for t in result.trials],
    }


def write_bench(path: str, payload: Dict[str, object]) -> None:
    """Write the artifact (sorted keys, trailing newline) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

