"""Short runs of the benchmark's ``stream``, ``chain-sweep`` and ``validate`` workloads.

``stream`` reads sampler attributes no other test reaches through the
benchmark (``config.epsilon``, ``heap.sort()``, ``heap_ordered()``,
``max_priority``, the tree conservation check) and checks its slot digests and
naive model against ``perfbench/reference.json``, so a deleted attribute fails
here rather than only as a failed benchmark run. ``chain-sweep`` checks its
``runs.csv`` rows for n = 8, 10 and 12, every strategy and both
representations, against the same file; no other test covers the n = 10 and
12 rows of the strategies other than the oracle. ``validate`` runs
``validate_samplers()`` at its defaults: the only workload on the bulk
``sample_many`` path, which reaches ``RankSampler.partition_for`` too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["stream", "chain-sweep", "validate"])
def test_a_short_benchmark_run_is_correct(workload):
    args = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0.5"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
