"""The traced run: per-layer metrics from spans, and the cost of recording them.

One set-up and ``trace_units`` units run with every layer wrapped; the same
number of units then run unwrapped, and the difference in their wall time is
the tracing overhead. Counts are therefore totals over a fixed amount of work.
The spans are written to ``spans-<workload>.npz`` and the timings the
self-test needs to ``trace-<workload>.json`` once the work is done.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import layers
from spans import Tracer


def measure(workload, out_dir: Path):
    """Per-layer metrics as (name, value, unit, note), then the lines only printed."""
    tracer = Tracer()
    made = layers.instrument(tracer)
    try:
        start = time.perf_counter()
        with tracer.root("perfbench.setup"):
            workload.setup()
        setup_s = time.perf_counter() - start
        traced_units = []
        for _ in range(workload.trace_units):
            inputs = workload.prepare()
            start = time.perf_counter()
            with tracer.root("perfbench.unit"):
                output = workload.run(inputs)
            traced_units.append(time.perf_counter() - start)
            workload.check(output)
    finally:
        tracer.restore()
    untraced_units = []
    for _ in range(workload.trace_units):
        inputs = workload.prepare()
        start = time.perf_counter()
        output = workload.run(inputs)
        untraced_units.append(time.perf_counter() - start)
        workload.check(output)
    workload.finish()

    spans = tracer.arrays()
    jobs = getattr(workload, "jobs", 1)
    values = layers.layer_metrics(tracer, made, spans, jobs)
    traced_s, untraced_s = sum(traced_units), sum(untraced_units)
    values["trace.wall_s"] = traced_s
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)

    np.savez(out_dir / f"spans-{workload.name}.npz", **spans)
    (out_dir / f"trace-{workload.name}.json").write_text(json.dumps({
        "names": tracer.names,
        "setup_s": setup_s,
        "traced_unit_s": traced_units,
        "untraced_unit_s": untraced_units,
    }))

    metrics = [(name, values[name], unit, "") for name, unit in layers.metric_units().items()]
    printed = []
    if workload.name == "chain-sweep":
        printed.append(("trace.sweep_jobs", float(jobs), "count", "the traced sweep runs its cells in this process"))
    return metrics, printed
