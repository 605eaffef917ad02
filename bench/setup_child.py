"""Set-up probe, run by ``run.py`` in a fresh interpreter.

    python3 bench/setup_child.py <workload> <seed>

Imports the workload code (and with it the ``repro`` modules it uses),
builds one of each machine the workload runs on, and prints one JSON line
with the import and build times it measured itself.  ``run.py`` times the
whole launch from outside; that wall time is the ``setup_s`` metric.
"""

import json
import sys
import time


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import workloads
    t1 = time.perf_counter()
    workloads.WORKLOADS[name].build(seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_ms": (t2 - t1) * 1e3}))


if __name__ == "__main__":
    main()
