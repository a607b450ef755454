"""Record ``tests/golden.json``: exact digests of what the library computes.

    PYTHONPATH=src python tests/record_golden.py

``tests/test_golden.py`` recomputes every entry with the functions below and
names the first run, event or check that differs. The file holds for the
numpy version and CPU vector extensions it records: numpy's vectorized ``**``
can differ from the scalar one in the last bit across them. Re-record only in
a change that alters output on purpose, and list the entries that moved in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from prioritized_replay import (
    REPRESENTATIONS,
    STRATEGIES,
    ProportionalSampler,
    RankSampler,
    RunConfig,
    SamplerConfig,
    Transition,
    run_training,
)
from prioritized_replay.bench import validate_samplers

GOLDEN = Path(__file__).with_name("golden.json")

# instrument events are digested in blocks of this many, so a mismatch names
# the block holding the first event that differs
EVENT_BLOCK = 64

# the vector-extension families whose presence can change numpy's results
_SIMD_PREFIXES = ("sse", "ssse", "avx", "fma", "f16c", "neon", "asimd", "sve")


def host() -> dict:
    """The numpy version and the CPU's vector extensions (Linux only)."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    flags: set[str] = set()
    for line in cpuinfo.splitlines():
        if line.startswith(("flags", "Features")):
            flags = set(line.partition(":")[2].split())
            break
    return {"numpy": np.__version__, "cpu_flags": sorted(f for f in flags if f.startswith(_SIMD_PREFIXES))}


def _label(config: RunConfig) -> str:
    return f"n={config.n_states} {config.strategy} {config.representation} seed={config.seed}"


def run_rows() -> dict:
    """(updates, converged, final_mse as hex) of every run over n = 2-9, each
    strategy and representation and seeds 1-2, then of the seed-1 oracle runs
    over n = 10-16, whose stall windows end most of them."""
    configs = [
        RunConfig(n, strategy, representation, seed)
        for n, strategy, representation, seed in itertools.product(range(2, 10), STRATEGIES, REPRESENTATIONS, (1, 2))
    ]
    configs += [RunConfig(n, "oracle", representation, 1) for n in range(10, 17) for representation in REPRESENTATIONS]
    rows = {}
    for config in configs:
        result = run_training(config)
        rows[_label(config)] = [result.updates, result.converged, result.final_mse.hex()]
    return rows


def _event_text(event: str, data: dict) -> str:
    fields = [(key, float.hex(value) if isinstance(value, float) else value) for key, value in data.items()]
    return repr((event, fields)) + "\n"


def event_digests() -> dict:
    """Every ``instrument`` event of the seed-1 runs over n = 3-6 at a budget
    of 20,000, floats as hex: a sha256 over all of them, and per run the
    event count and a short digest of each block of ``EVENT_BLOCK``."""
    whole = hashlib.sha256()
    runs = {}
    for n, strategy, representation in itertools.product(range(3, 7), STRATEGIES, REPRESENTATIONS):
        config = RunConfig(n, strategy, representation, seed=1, budget=20_000)
        events: list[str] = []
        run_training(config, instrument=lambda event, **data: events.append(_event_text(event, data)))
        blocks = []
        for start in range(0, len(events), EVENT_BLOCK):
            text = "".join(events[start : start + EVENT_BLOCK]).encode()
            whole.update(text)
            blocks.append(hashlib.sha256(text).hexdigest()[:12])
        runs[_label(config)] = {"events": len(events), "blocks": blocks}
    return {"runs": runs, "sha256": whole.hexdigest()}


def validation() -> dict:
    """(name, measured as hex, passed) of every ``validate_samplers()`` check
    at its defaults, and the sha256 over their reprs in order."""
    checks = [(result.name, result.measured.hex(), result.passed) for result in validate_samplers()]
    digest = hashlib.sha256()
    for check in checks:
        digest.update(repr(check).encode())
    return {"checks": [list(check) for check in checks], "sha256": digest.hexdigest()}


def sampler_draws() -> dict:
    """Per sampler, after a window of 2^12 filled one and a half times over,
    each store followed by a heavy-tailed priority update: the slots of three
    ``sample(32)`` calls, digests of one ``sample_many(32, 64)`` call's slots
    and of every probability drawn, and the generator state after them."""
    capacity, k = 1 << 12, 32
    transition = Transition(0, 0, 0.0, 0.99, 1)
    draws = {}
    for name, sampler_cls, alpha in (("proportional", ProportionalSampler, 0.6), ("rank", RankSampler, 0.7)):
        sampler = sampler_cls(SamplerConfig(capacity=capacity, alpha=alpha, minibatch=k))
        rng = np.random.default_rng([2018, capacity])
        for td in rng.standard_t(2, size=capacity + capacity // 2).tolist():
            sampler.update_priority(sampler.store(transition), td)
        slots, probabilities = [], hashlib.sha256()
        for _ in range(3):
            batch = sampler.sample(k, rng=rng)
            slots += batch.indices
            probabilities.update(batch.probabilities.tobytes())
        many = sampler.sample_many(k, 64, rng=rng)
        draws[name] = {
            "sample": slots,
            "sample_many": hashlib.sha256(np.ascontiguousarray(many, dtype=np.int64).tobytes()).hexdigest(),
            "probabilities": probabilities.hexdigest(),
            "rng_state": hex(rng.bit_generator.state["state"]["state"]),
        }
    return draws


SECTIONS = {"runs": run_rows, "events": event_digests, "validation": validation, "draws": sampler_draws}


def main() -> None:
    golden = {"host": host(), **{name: compute() for name, compute in SECTIONS.items()}}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
