"""Inline, parallel and sharded DISC-all on one database, side by side.

Run from the repository root::

    python3 e2ebench/algorithms.py

Mines the mine-wide database (1000 customers at 1.5%) and the 150-customer
database of serve-mixed and cluster-loopback (3%), both at seed 1, with
``disc-all``, ``disc-all-parallel`` (2 processes) and ``disc-all-cluster``
(one ``repro serve --role worker`` on loopback), checks the three pattern
maps of each database are identical, and prints the median seconds of
three mines each.  These are the README's reference figures; no workload
runs ``disc-all-parallel``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
REPEATS = 3


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import datagen
    import workloads
    from percentiles import median
    from servers import ServerProcess

    from repro import SequenceDatabase, mine
    from repro.cluster.coordinator import WorkerPool, register_cluster_algorithm

    status = 0
    for shape, support in ((workloads.WIDE, workloads.WIDE_SUPPORT),
                           (workloads.SMALL, workloads.SMALL_SUPPORT)):
        db = SequenceDatabase.from_raw(datagen.generate(shape, SEED))
        worker = ServerProcess(ROOT, "--role", "worker")
        pool = WorkerPool([worker.url], degrade=False)
        register_cluster_algorithm(pool)
        try:
            runs = {"disc-all": {}, "disc-all-parallel": {"processes": 2},
                    "disc-all-cluster": {}}
            reference = None
            print(f"{shape.ncust} customers, min support {support}:")
            for algorithm, options in runs.items():
                times = []
                for _ in range(REPEATS):
                    started = time.perf_counter()
                    result = mine(db, support, algorithm=algorithm, **options)
                    times.append(time.perf_counter() - started)
                if reference is None:
                    reference = result.patterns
                same = "same patterns" if result.patterns == reference else "DIFFERENT PATTERNS"
                status |= result.patterns != reference
                print(f"  {algorithm:18s} {median(times):7.3f} s  ({len(result.patterns)} {same})")
        finally:
            pool.close()
            worker.stop()
    return status


if __name__ == "__main__":
    sys.exit(main())
