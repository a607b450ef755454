"""Trace the resident set of a perfbench ``stream`` run, step by step.

    python scripts/stream_rss.py --seed 1 --units 8
    python scripts/stream_rss.py --checkout ../other-checkout --seed 2

It drives the ``stream`` workload of ``perfbench/`` in the given checkout
(default: the one holding this script) the way ``perfbench/run.py`` does
untraced: each set-up first imports the package in a fresh child interpreter,
then prefills both windows and sorts the rank heap once; then it runs
``--units`` units and ``finish()``. It also sorts the rank heap once more
before ``finish()``, as the run-time re-sort (every 10^6 heap updates) does
once a run's own arrays exist, so the lift that re-sort gives the peak shows
without a run long enough to reach it.

At each step it prints the process's resident set now (``/proc/self/statm``),
its own peak (``ru_maxrss``) and the largest child's peak. ``peak_rss_mb``
adds the last two; the import child is started from this process, and Linux
counts the parent's resident pages at that moment in the child's
``ru_maxrss``, so that share of the figure is the benchmark's own memory
counted twice.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def resident_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_MB


def peak_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--units", type=int, default=8)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import run  # perfbench/run.py; sets one BLAS thread before numpy loads

    run.import_program()
    import workloads
    from prioritized_replay import rank

    print(f"{'step':<34}{'rss_mb':>9}{'self_peak_mb':>14}{'child_peak_mb':>15}{'ms':>9}")

    def mark(step: str, ms: float = float("nan")) -> None:
        print(f"{step:<34}{resident_mb():>9.1f}{peak_mb(resource.RUSAGE_SELF):>14.1f}"
              f"{peak_mb(resource.RUSAGE_CHILDREN):>15.1f}{ms:>9.1f}", flush=True)

    sort = rank.RankStore.sort
    phase = "set-up"

    def traced_sort(store) -> None:
        mark(f"  before {phase} sort")
        began = time.perf_counter()
        sort(store)
        mark(f"  after {phase} sort", 1e3 * (time.perf_counter() - began))

    rank.RankStore.sort = traced_sort
    workload = workloads.WORKLOADS["stream"](args.seed, run.OUT_DIR)
    mark("start")
    for rep in range(workload.setup_reps):
        run.import_package()
        mark(f"set-up {rep + 1}: after import child")
        workload.setup()
    workload.begin_units()
    for _ in range(args.units):
        workload.check(workload.run(workload.prepare()))
    workload.end_units()
    mark(f"after {args.units} units")
    phase = "run-time"
    workload.state["samplers"]["rank"].heap.sort()
    began = time.perf_counter()
    workload.finish()
    mark("after finish", 1e3 * (time.perf_counter() - began))
    print(f"peak_rss_mb as perfbench reports it: {run.peak_rss_mb():.1f}; "
          f"failed {workload.failed} of {workload.attempted}")
    return 1 if workload.failed else 0


if __name__ == "__main__":
    sys.exit(main())
