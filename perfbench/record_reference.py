"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py --seeds 0-31

For each seed this runs one unit of ``chain14``, ``chain-sweep`` and
``stream`` and stores their deterministic outputs in ``reference.json``: the
``runs.csv`` columns other than ``wall_ms`` for the two chain workloads, and
a digest of the sampled-slot sequence of the first unit of ``stream`` for
each sampler. ``validate`` needs no reference: its checks carry their own
thresholds.

Re-record only in a change that means to alter results, and say so there;
every other change must reproduce the recorded outputs exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import OUT_DIR, import_program

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def seed_range(raw: str) -> list[int]:
    lo, _, hi = raw.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"), help="inclusive range, e.g. 0-31")
    parser.add_argument("--workloads", default="chain14,chain-sweep,stream")
    args = parser.parse_args(argv)
    import_program()
    import workloads

    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.is_file() else {}
    reference["default_seed"] = DEFAULT_SEED
    reference["held_out_seed"] = HELD_OUT_SEED
    OUT_DIR.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        for seed in args.seeds:
            workload = workloads.WORKLOADS[name](seed, OUT_DIR)
            workload.reference = None
            workload.setup()
            workload.check(workload.run(workload.prepare()))
            if workload.failed:
                print("\n".join(workload.problems), file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = workload.first
            print(f"{name} seed {seed}: recorded", file=sys.stderr, flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
