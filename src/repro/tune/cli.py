"""``python -m repro tune`` — run an exploration campaign.

    python -m repro tune pingpong --smoke
    python -m repro tune chaos --search evolution --budget 32 --workers 4
    python -m repro tune synthetic --search bayes --budget 64 --resume

Smoke mode trims the evaluation sizes and defaults to a small
multi-process campaign (budget 8, batch 4, 2 workers).  ``--resume``
reloads the on-disk cache so completed points are answered without
re-simulating; without it the cache starts fresh.
"""

from __future__ import annotations

import os
from typing import List, Optional

from .cache import ResultsCache
from .env import WORKLOADS, EnvConfig
from .report import bench_payload, render_report, write_bench
from .runner import run_campaign
from .search import STRATEGIES

USAGE = ("usage: python -m repro tune <workload> [--search NAME] "
         "[--budget N] [--batch N] [--workers N] [--seed N] [--smoke] "
         "[--resume] [--cache PATH] [--out PATH]\n"
         f"workloads: {', '.join(sorted(WORKLOADS))}; "
         f"searches: {', '.join(sorted(STRATEGIES))}")


def _int_opt(argv: List[str], name: str) -> Optional[int]:
    """Pop ``name <value>`` from ``argv``; None when absent."""
    if name not in argv:
        return None
    i = argv.index(name)
    if i + 1 >= len(argv):
        raise ValueError(f"{name} needs a value")
    value = int(argv[i + 1])
    del argv[i:i + 2]
    return value


def _str_opt(argv: List[str], name: str) -> Optional[str]:
    """Pop ``name <value>`` from ``argv``; None when absent."""
    if name not in argv:
        return None
    i = argv.index(name)
    if i + 1 >= len(argv):
        raise ValueError(f"{name} needs a value")
    value = argv[i + 1]
    del argv[i:i + 2]
    return value


def cmd_tune(argv: List[str]) -> int:
    """Entry point for ``python -m repro tune ...``."""
    argv = list(argv)
    smoke = "--smoke" in argv
    resume = "--resume" in argv
    argv = [a for a in argv if a not in ("--smoke", "--resume")]
    try:
        search = _str_opt(argv, "--search") or "random"
        budget = _int_opt(argv, "--budget")
        batch = _int_opt(argv, "--batch")
        workers = _int_opt(argv, "--workers")
        seed = _int_opt(argv, "--seed")
        cache_path = _str_opt(argv, "--cache")
        out = _str_opt(argv, "--out") or "BENCH_TUNE.json"
    except ValueError as exc:
        print(f"{exc}\n{USAGE}")
        return 2
    unknown = [a for a in argv if a.startswith("-")]
    if unknown:
        print(f"unknown option(s) {', '.join(unknown)}\n{USAGE}")
        return 2
    workload = argv[0] if argv else "pingpong"
    if workload not in WORKLOADS:
        print(f"unknown tune workload {workload!r}\n{USAGE}")
        return 2
    if search not in STRATEGIES:
        print(f"unknown search strategy {search!r}\n{USAGE}")
        return 2
    seed = seed if seed is not None else 20180611
    budget = budget if budget is not None else (8 if smoke else 24)
    batch = batch if batch is not None else 4
    workers = workers if workers is not None else (2 if smoke else 1)
    env_config = EnvConfig.smoke() if smoke else EnvConfig()
    if cache_path is None:
        cache_path = os.path.join(
            ".picotune", f"{workload}-{search}-{seed}.jsonl")
    os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
    with ResultsCache(cache_path, resume=resume) as cache:
        for err in cache.errors:
            print(f"cache: {err}")
        result = run_campaign(workload, search=search, budget=budget,
                              batch=batch, seed=seed, workers=workers,
                              cache=cache, env_config=env_config,
                              log=print)
    print()
    print(render_report(result))
    write_bench(out, bench_payload(result))
    print(f"\nwrote {out} (cache: {cache_path}, "
          f"{result.cache_hits} hits / {result.evaluations_run} evaluated)")
    return 0
