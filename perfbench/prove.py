"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/prove.py --seeds 1-10                       # every workload
    python3 perfbench/prove.py --workloads stream --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --out perfbench/baseline.json

Each run is ``run.py --trace 0`` with the run length from BENCHMARK.json, one
at a time. For every metric printed (the end-to-end metrics in the JSON line
and the per-workload metrics in the report above it) this prints the median,
the quartiles from ``statistics.quantiles(values, n=4)``, the sample count and
the spread (q3 - q1) / median, and marks an end-to-end metric whose spread
exceeds a third of its bound. ``--out`` writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


def seed_range(raw: str) -> list[int]:
    lo, _, hi = raw.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed, units = {}, {}
    for line in lines[:-1]:
        match = REPORT_LINE.match(line)
        if match and match.group(2) != "nan":
            printed[match.group(1)] = float(match.group(2))
            units[match.group(1)] = match.group(3)
    return result, printed, units


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {
        "host": {"cpu": cpu_model(), "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in args.seeds:
            result, printed, printed_units = run_once(workload, seed, spec["run_seconds"])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, value in printed.items():
                values.setdefault(name, []).append(value)
            units.update(printed_units)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "n": len(vals), "unit": units[name],
                          "spread": spread}
            flag = ""
            if name in bounds and name != "setup_s":
                worst = max(worst, spread / bounds[name])
                flag = "  ABOVE bound/3" if spread > bounds[name] / 3 else ""
            print(f"  {workload:<12} {name:<40} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"n {len(vals):<3} spread {spread:.4f}{flag}")
        summary["workloads"][workload] = {"failed": failed, "attempted": attempted, "metrics": rows}
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
