"""A short run of the benchmark's ``stream`` workload. It reads sampler
attributes no other test reaches through the benchmark (``config.epsilon``,
``heap.sort()``, ``heap_ordered()``, ``max_priority``, the tree conservation
check) and checks its slot digests and naive model against
``perfbench/reference.json``, so a deleted attribute fails here rather than
only as a failed benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_a_short_stream_run_is_correct():
    args = [sys.executable, str(RUN), "--workload", "stream", "--seed", "1", "--seconds", "0.5"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
