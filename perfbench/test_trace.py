"""Self-test of the traced run.

    python3 -m pytest perfbench/test_trace.py

Runs every workload once with ``--trace 1`` and checks that its spans nest,
that the self times of all spans add up to the traced wall time within the
tracing overhead, and that the run reports exactly the per-layer metrics
that BENCHMARK.json declares. Takes about a minute on 2 CPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from spans import nesting_errors, span_table  # noqa: E402


@pytest.fixture(scope="module", params=[w["name"] for w in BENCHMARK["workloads"]])
def traced_run(request):
    workload = request.param
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with np.load(OUT_DIR / f"spans-{workload}.npz") as data:
        spans = {key: data[key] for key in data.files}
    meta = json.loads((OUT_DIR / f"trace-{workload}.json").read_text())
    return workload, result, spans, meta


def test_outputs_are_correct(traced_run):
    _, result, _, _ = traced_run
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_reports_every_declared_per_layer_metric(traced_run):
    _, result, _, _ = traced_run
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_spans_nest(traced_run):
    _, _, spans, meta = traced_run
    assert spans["start"].size > 0
    assert nesting_errors(spans) == []
    roots = spans["parent"] < 0
    root_names = {meta["names"][i] for i in np.unique(spans["name_id"][roots])}
    assert root_names <= {"perfbench.setup", "perfbench.unit"}


def test_self_times_add_up_to_traced_wall(traced_run):
    _, _, spans, meta = traced_run
    table = span_table(spans, len(meta["names"]))
    self_s = table["self_ns"].sum() * 1e-9
    roots = spans["parent"] < 0
    assert self_s == pytest.approx((spans["end"][roots] - spans["start"][roots]).sum() * 1e-9, abs=1e-6)
    traced_wall = meta["setup_s"] + sum(meta["traced_unit_s"])
    # machine noise can hide the overhead of a lightly traced workload, so a
    # gap of 0.1% of the traced wall time is accepted in its place
    overhead = sum(meta["traced_unit_s"]) - sum(meta["untraced_unit_s"])
    assert abs(self_s - traced_wall) <= max(overhead, 1e-3 * traced_wall)
