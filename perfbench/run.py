"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in, never
from an installed copy. With ``--trace 0`` the run measures the end-to-end
metrics untraced: CPU times (this process and its pool workers), each scaled
to a reference machine speed by the calibration kernel of ``calibrate.py``,
and the peak resident set. With ``--trace 1`` it wraps the library's public
callables, records spans and reports per-layer metrics plus the tracing
overhead. Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
Exit code 0 means the run completed (``correct`` says whether the outputs
matched); 2 means the program could not be found or imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy is first imported: the measured CPU time is
# then the program's work, not BLAS threads spinning
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("chain14", "chain-sweep", "stream", "validate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import prioritized_replay from this checkout's src/, or exit with code 2."""
    if not (SRC / "prioritized_replay" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/prioritized_replay", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import prioritized_replay

    if Path(prioritized_replay.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported {prioritized_replay.__file__}, not the checkout's copy", file=sys.stderr)
        raise SystemExit(2)


def import_package() -> None:
    """Import the package in a fresh interpreter (a child process, so its CPU time is counted)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import prioritized_replay"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=60)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (ru_maxrss, KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_units(workload, seconds: float, kernel_s: list[float]):
    """Timed units for about ``seconds``: at least one, and no new unit once
    the time left is under half a unit, so a run overshoots by at most that.

    The calibration kernel is timed after every unit and appended to
    ``kernel_s``, whose last entry on the way in was timed just before the
    first unit. A unit's speed is the mean of the kernel times around it and of
    those the workload took inside it (whose CPU time is not counted as the
    unit's). Returns the CPU seconds, the wall seconds and the scale to the
    reference speed of every unit."""
    cpu: list[float] = []
    wall: list[float] = []
    scales: list[float] = []
    began = time.perf_counter()
    while True:
        inputs = workload.prepare()
        start_cpu, start = cpu_seconds(), time.perf_counter()
        output = workload.run(inputs)
        wall.append(time.perf_counter() - start)
        cpu.append(cpu_seconds() - start_cpu)
        kernel_s.append(calibrate.kernel_seconds())
        workload.check(output)
        cpu[-1] -= workload.unit_calibration_s
        kernels = [*kernel_s[-2:], *workload.unit_kernels]
        scales.append(calibrate.REFERENCE_KERNEL_S * len(kernels) / sum(kernels))
        if time.perf_counter() - began + statistics.median(wall) / 2 >= seconds:
            return cpu, wall, scales


def scaled_median(values: list[float], scales: list[float]) -> float:
    """Median of the values, each scaled to the reference speed; NaN unless every unit gave one."""
    if len(values) != len(scales):
        return math.nan
    return statistics.median(v * f for v, f in zip(values, scales))


def measure(workload, seconds: float):
    """Untraced run: the end-to-end metrics, then the per-workload ones that are only printed.

    Each metric is (name, value, unit, note)."""
    setup_cpu, setup_wall = [], []
    kernel_s = [calibrate.kernel_seconds()]
    for _ in range(workload.setup_reps):
        start_cpu, start = cpu_seconds(), time.perf_counter()
        import_package()
        workload.setup()
        setup_wall.append(time.perf_counter() - start)
        setup_cpu.append(cpu_seconds() - start_cpu)
        kernel_s.append(calibrate.kernel_seconds())
    setup_scales = calibrate.scales(kernel_s)
    kernel_s = kernel_s[-1:]
    workload.begin_units()
    try:
        unit_cpu, unit_wall, unit_scales = run_units(workload, seconds, kernel_s)
    finally:
        workload.end_units()
    workload.finish()
    units = len(unit_cpu)
    note = "CPU at reference speed, median of {}".format
    metrics = [
        ("setup_s", scaled_median(setup_cpu, setup_scales), "s",
         note(f"{workload.setup_reps} set-ups, each a fresh-interpreter import plus input generation")),
        ("cpu_s", scaled_median(unit_cpu, unit_scales), "s", note(f"{units} units, pool workers included")),
        ("peak_rss_mb", peak_rss_mb(), "MB", "self plus largest child"),
        *((name, statistics.median(workload.op_ref[name]) if workload.op_ref[name]
           else scaled_median(values, unit_scales), "us", note(f"{units} units"))
          for name, values in workload.op_us.items()),
    ]
    printed = [
        ("kernel_ms", 1e3 * statistics.median(kernel_s), "ms",
         f"calibration kernel CPU time, median of {len(kernel_s)}; reference {1e3 * calibrate.REFERENCE_KERNEL_S:g} ms"),
        ("setup_cpu_s", statistics.median(setup_cpu), "s", f"unscaled, median of {workload.setup_reps} set-ups"),
        ("unit_cpu_s", statistics.median(unit_cpu), "s", f"unscaled, median of {units} units"),
        ("unit_speed", statistics.median(unit_scales), "x", "reference kernel time over the unit's, median"),
        *((f"{name}.unscaled", statistics.median(values), "us", f"median of {len(values)}")
          for name, values in workload.op_us.items() if values),
        ("setup_wall_s", statistics.median(setup_wall), "s", f"median of {workload.setup_reps} set-ups"),
        ("wall_s", statistics.median(unit_wall), "s", f"median of {units} units"),
        fail_frac(workload),
        *workload.printed_metrics(),
    ]
    return metrics, printed


def fail_frac(workload) -> tuple:
    return ("fail_frac", workload.failed / max(workload.attempted, 1), "fraction",
            f"{workload.failed} of {workload.attempted}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR, traced=bool(args.trace))
    if args.trace:
        import traced

        metrics, printed = traced.measure(workload, OUT_DIR)
        printed.append(fail_frac(workload))
    else:
        metrics, printed = measure(workload, args.seconds)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"reference {'recorded' if workload.reference is not None else 'not recorded: units must repeat the first'}")
    for name, value, unit, note in (*metrics, *printed):
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for problem in workload.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": workload.failed == 0 and workload.attempted > 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, value, unit, _ in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
