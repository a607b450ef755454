"""Benchmark sweeps over (size, strategy, representation, seed) and sampler validation.

A sweep expands a grid of trial configurations, runs them (optionally across
a process pool; every trial is independently seeded so scheduling cannot
change results), and writes two comma-separated files: the raw per-trial
records and a per-cell summary with median/min/max update counts. All columns
except ``wall_ms`` are deterministic for a fixed configuration.

The validation suite re-measures the samplers' distributional guarantees
(empirical vs. target sampling distributions, tree-sum conservation,
partition mass balance, importance-weight unbiasedness) and reports each
check's measured value against its threshold.
"""

from __future__ import annotations

import csv
import os
import statistics
from dataclasses import dataclass, field, fields
from itertools import product
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .agent import REPRESENTATIONS, STRATEGIES, RunConfig, RunResult, run_training
from .cliffwalk import memory_size
from .core import SamplerConfig, Transition, _check_count, sampling_probabilities
from .rank import RankSampler, build_partition
from .sumtree import ProportionalSampler, SumTree

__all__ = [
    "RAW_COLUMNS",
    "SUMMARY_COLUMNS",
    "SweepConfig",
    "SweepConfigError",
    "load_sweep_config",
    "expand_runs",
    "run_sweep",
    "write_results",
    "CheckResult",
    "validate_samplers",
]

RAW_COLUMNS = ("n", "transitions", "strategy", "representation", "seed", "updates", "censored", "wall_ms")
SUMMARY_COLUMNS = (
    "n",
    "transitions",
    "strategy",
    "representation",
    "median",
    "min",
    "max",
    "n_censored",
)

RAW_FILENAME = "runs.csv"
SUMMARY_FILENAME = "summary.csv"

# oracle cells above this size are recorded as skipped, not run, until stalled
# runs are reported at their budget and acceptance criteria 4 and 5 are
# rechecked with n = 14 and 16 oracle rows
ORACLE_MAX_N = 12


class SweepConfigError(ValueError):
    """Raised for malformed sweep configuration files or values."""


def parse_on_off(raw: str) -> bool:
    """``on``/``true``/``1``/``yes`` or ``off``/``false``/``0``/``no``, any case."""
    lowered = raw.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on or off, got {raw!r}")


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _seeds(raw: str) -> tuple[int, ...]:
    """A comma list, or a bare count N (at least 1) meaning seeds 1..N."""
    if "," in raw:
        return _ints(raw)
    _check_count("seeds", int(raw))
    return tuple(range(1, int(raw) + 1))


def _setting(default, parse, help: str, flag: str | None = None):
    """A sweep setting: its default, the parser of its text, its help, and its
    flag unless that is ``--`` plus the key with ``-`` for ``_``."""
    return field(default=default, metadata={"parse": parse, "help": help, "flag": flag})


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition plus the knobs shared by every trial in the sweep. Each
    field declares one setting, which config files, flags and ``--help`` read."""

    sizes: tuple[int, ...] = _setting((2, 4, 6, 8, 10, 12, 14, 16), _ints, "comma-separated chain sizes, e.g. 2,4,8")
    strategies: tuple[str, ...] = _setting(STRATEGIES, _names, "comma-separated strategy names")
    representations: tuple[str, ...] = _setting(REPRESENTATIONS, _names, "tabular,linear (default both)")
    seeds: tuple[int, ...] = _setting(tuple(range(1, 11)), _seeds, "seed count N (runs 1..N) or a comma list")
    budget: int = _setting(RunConfig.budget, int, "update budget per run before censoring")
    alpha: float | None = _setting(RunConfig.alpha, float, "prioritization exponent override")
    beta0: float | None = _setting(RunConfig.beta0, float, "initial importance-sampling exponent override")
    eta: float = _setting(RunConfig.step_size, float, "gradient step size")
    clip_td: bool = _setting(RunConfig.clip_td, parse_on_off, "clip TD errors to [-1, 1]")
    use_is_weights: bool = _setting(
        RunConfig.use_is_weights, parse_on_off, "importance weights on|off", "--is-weights"
    )
    jobs: int | None = _setting(None, int, "parallel worker processes (default: cpu count)")
    out_dir: str = _setting("bench_out", str, "output directory for runs.csv/summary.csv")

    def __post_init__(self) -> None:
        for axis in ("sizes", "strategies", "representations", "seeds"):
            values = getattr(self, axis)
            if not values:
                raise SweepConfigError(f"{axis} must be non-empty")
            # a repeated value would run its cells twice
            if len(set(values)) != len(values):
                raise SweepConfigError(f"{axis} must be distinct, got {values}")
        # every other value is checked by the RunConfig each cell would run;
        # the grid is non-empty, so none goes unchecked. Each seed is checked
        # once, after the first cell, where a RunConfig per seed would meet it
        try:
            if self.jobs is not None:
                _check_count("jobs", self.jobs)
            cells = list(product(self.sizes, self.strategies, self.representations))
            _run_config(self, *cells[0], self.seeds[0])
            for seed in self.seeds[1:]:
                _check_count("seed", seed, 0)
            for cell in cells[1:]:
                _run_config(self, *cell, self.seeds[0])
        except ValueError as error:
            raise SweepConfigError(str(error)) from None


def _parse_value(key: str, raw: str):
    """The value of ``key`` read from its text, alike in config files and
    flags, by the parser its ``SweepConfig`` field declares. Lists are
    comma-separated."""
    setting = {f.name: f for f in fields(SweepConfig)}.get(key)
    if setting is None:
        raise SweepConfigError(f"unknown configuration key {key!r}")
    try:
        return setting.metadata["parse"](raw.strip())
    except ValueError as exc:
        raise SweepConfigError(str(exc)) from None


def load_sweep_config(path: str | Path | None = None, overrides: dict | None = None) -> SweepConfig:
    """Parse a KEY = VALUE configuration file, if given, then apply
    ``overrides`` (``None`` values skipped) on top.

    Lines starting with ``#`` and blank lines are ignored. Errors carry the
    offending line number.
    """
    values: dict = {}
    lines = Path(path).read_text().splitlines() if path is not None else []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise SweepConfigError(f"{path}:{lineno}: expected KEY = VALUE, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        try:
            values[key.strip()] = _parse_value(key.strip(), raw)
        except SweepConfigError as exc:
            raise SweepConfigError(f"{path}:{lineno}: {exc}") from None
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return SweepConfig(**values)
    except TypeError as exc:  # a key SweepConfig lacks, or a value of the wrong kind
        raise SweepConfigError(str(exc)) from None


def expand_runs(config: SweepConfig) -> list[RunConfig]:
    grid = product(config.sizes, config.strategies, config.representations, config.seeds)
    return [_run_config(config, *cell) for cell in grid]


def _run_config(config: SweepConfig, n: int, strategy: str, representation: str, seed: int) -> RunConfig:
    return RunConfig(
        n_states=n,
        strategy=strategy,
        representation=representation,
        seed=seed,
        budget=config.budget,
        step_size=config.eta,
        alpha=config.alpha,
        beta0=config.beta0,
        clip_td=config.clip_td,
        use_is_weights=config.use_is_weights,
    )


def run_sweep(config: SweepConfig) -> tuple[list[dict], list[dict]]:
    """Execute the grid and return (raw rows, summary rows) as column dicts."""
    runs = expand_runs(config)
    skipped = [run.strategy == "oracle" and run.n_states > ORACLE_MAX_N for run in runs]
    configs = [run for run, skip in zip(runs, skipped) if not skip]
    jobs = config.jobs if config.jobs is not None else (os.cpu_count() or 1)
    jobs = min(jobs, len(configs) or 1)
    if jobs > 1 and len(configs) > 1:
        with Pool(processes=jobs) as pool:
            results = pool.map(run_training, configs)
    else:
        results = [run_training(rc) for rc in configs]

    # pool.map keeps its input order, so the results follow the runnable cells
    outcomes = iter(results)
    raw_rows = [_raw_row(run, None if skip else next(outcomes)) for run, skip in zip(runs, skipped)]
    raw_rows.sort(key=lambda row: (row["n"], row["strategy"], row["representation"], row["seed"]))
    return raw_rows, summarize(raw_rows)


def _raw_row(run: RunConfig, result: RunResult | None) -> dict:
    """The row of ``run``: its outcome, or blank for a skipped cell."""
    if result is None:
        outcome = {"updates": "", "censored": "skipped", "wall_ms": 0}
    else:
        censored = "false" if result.converged else "true"
        outcome = {"updates": result.updates, "censored": censored, "wall_ms": int(round(result.wall_ms))}
    return {
        "n": run.n_states,
        "transitions": memory_size(run.n_states),
        "strategy": run.strategy,
        "representation": run.representation,
        "seed": run.seed,
        **outcome,
    }


def summarize(raw_rows: list[dict]) -> list[dict]:
    """Per-(n, strategy, representation) medians with min/max and censor counts.

    Censored trials enter the order statistics at their reported ``updates``
    (a lower bound on the true updates-to-convergence): the budget, or for a
    stalled oracle run the end of its stall window, which can lie far below
    the budget. Skipped cells produce a row with empty statistics.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in raw_rows:
        groups.setdefault((row["n"], row["strategy"], row["representation"]), []).append(row)
    summary = []
    for (n, strategy, representation), rows in sorted(groups.items()):
        executed = [r for r in rows if r["censored"] != "skipped"]
        if executed:
            updates = [int(r["updates"]) for r in executed]
            stats = {
                "median": _format_stat(statistics.median(updates)),
                "min": min(updates),
                "max": max(updates),
                "n_censored": sum(1 for r in executed if r["censored"] == "true"),
            }
        else:
            stats = {"median": "", "min": "", "max": "", "n_censored": ""}
        summary.append(
            {
                "n": n,
                "transitions": memory_size(n),
                "strategy": strategy,
                "representation": representation,
                **stats,
            }
        )
    return summary


def _format_stat(value) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def write_results(raw_rows: list[dict], summary_rows: list[dict], out_dir: str | Path) -> tuple[Path, Path]:
    """Write the raw and summary files; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw_path = out / RAW_FILENAME
    summary_path = out / SUMMARY_FILENAME
    _write_csv(raw_path, RAW_COLUMNS, raw_rows)
    _write_csv(summary_path, SUMMARY_COLUMNS, summary_rows)
    return raw_path, summary_path


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


# -- sampler validation -------------------------------------------------------

# slots of validate_samplers' distribution checks, each drawn as one minibatch
VALIDATION_SLOTS = 16


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: measured {self.measured:.6g} vs threshold {self.threshold:.6g}{note}"


def _dummy_transitions(count: int) -> list[Transition]:
    return [Transition(0, 0, 0.0, 0.0, 0, is_terminal=True) for _ in range(count)]


def _distribution_check(name: str, sampler, target, rng, draws: int, threshold: float) -> CheckResult:
    """Total-variation distance between ``target`` and the frequencies of
    stratified minibatches of one slot per entry of a full ``sampler``."""
    size = len(sampler)
    batches = draws // size
    slots = sampler.sample_many(size, batches, rng=rng)
    counts = np.bincount(slots.ravel(), minlength=size).astype(float)
    tv = float(0.5 * np.abs(counts / counts.sum() - target).sum())
    return CheckResult(
        name=name,
        measured=tv,
        threshold=threshold,
        passed=tv < threshold,
        detail=f"{batches * size} draws, total-variation distance",
    )


def check_sumtree_distribution(
    alpha: float, priorities, rng: np.random.Generator, draws: int = 1_000_000,
    threshold: float = 0.005,
) -> CheckResult:
    """Empirical stratified-sampling frequencies vs. the exact distribution.

    One slot per entry of ``priorities``; ``rng`` draws the strata.
    """
    size = len(priorities)
    sampler = ProportionalSampler(SamplerConfig(capacity=size, alpha=alpha, minibatch=size))
    for i, t in enumerate(_dummy_transitions(size)):
        sampler.store(t)
        sampler.update_priority(i, priorities[i] - sampler.config.epsilon)
    target = sampling_probabilities(priorities, alpha)
    return _distribution_check(f"sum-tree stratified sampling, alpha={alpha}", sampler, target, rng, draws, threshold)


def check_rank_distribution(
    alpha: float, priorities, rng: np.random.Generator, draws: int = 1_000_000,
    threshold: float = 0.01,
) -> CheckResult:
    """Empirical rank-sampler frequencies vs. the exact power law (exact ranks).

    One slot per entry of ``priorities``, each stored as its |td|; ``rng``
    draws the strata.
    """
    size = len(priorities)
    sampler = RankSampler(SamplerConfig(capacity=size, alpha=alpha, minibatch=size))
    for i, t in enumerate(_dummy_transitions(size)):
        sampler.store(t)
        sampler.update_priority(i, priorities[i])
    sampler.heap.sort()
    order = sorted(range(size), key=lambda i: (-priorities[i], i))
    ranks = np.empty(size, dtype=np.int64)
    for rank_index, slot in enumerate(order):
        ranks[slot] = rank_index + 1
    target = sampling_probabilities(1.0 / ranks, alpha)
    return _distribution_check(f"rank stratified sampling, alpha={alpha}", sampler, target, rng, draws, threshold)


def check_tree_conservation(
    tree: SumTree | None = None, updates: int = 100_000, size: int = 1024, seed: int = 3,
    threshold: float = 1e-6,
) -> CheckResult:
    """Structural sum conservation after a long stream of random updates.

    Verifies the root against the leaf total and every internal node against
    its two children (relative errors), so a single corrupted node anywhere
    fails the check.
    """
    rng = np.random.default_rng(seed)
    if tree is None:
        tree = SumTree(size)
        leaves = rng.integers(0, tree.capacity, size=updates)
        values = rng.uniform(0.0, 10.0, size=updates)
        set_leaf = tree.set_leaf
        # Python scalars 1,024 at a time: lists of all 100k would raise peak RSS by 6 MB
        for start in range(0, updates, 1024):
            for leaf, value in zip(leaves[start : start + 1024].tolist(), values[start : start + 1024].tolist()):
                set_leaf(leaf, value)
    reference = float(tree.nodes[tree.capacity - 1 :].sum())
    rel_error = abs(tree.total - reference) / max(reference, 1e-300)
    node_error = 0.0
    if tree.capacity > 1:
        internal = tree.nodes[: tree.capacity - 1]
        child_sums = tree.nodes[1 : 2 * tree.capacity - 1].reshape(-1, 2).sum(axis=1)
        node_error = float(np.max(np.abs(internal - child_sums) / (1.0 + np.abs(internal))))
    measured = max(rel_error, node_error)
    return CheckResult(
        name="sum-tree conservation",
        measured=measured,
        threshold=threshold,
        passed=measured < threshold,
        detail="max of relative |root - sum(leaves)| and per-node child-sum error",
    )


def check_partition_masses(
    n: int = 4096, alpha: float = 0.7, k: int = 16, threshold: float | None = None
) -> CheckResult:
    """Every partition segment's mass within 1/(2k) of the ideal 1/k."""
    if threshold is None:
        threshold = 1.0 / (2 * k)
    partition = build_partition(n, alpha, k)
    deviation = float(np.abs(partition.segment_masses() - 1.0 / k).max())
    return CheckResult(
        name=f"partition mass balance, n={n}, alpha={alpha}, k={k}",
        measured=deviation,
        threshold=threshold,
        passed=deviation <= threshold,
        detail="max |segment mass - 1/k|",
    )


def check_is_unbiasedness(
    draws: int = 1_000_000, size: int = 8, seed: int = 19, sigmas: float = 3.0
) -> CheckResult:
    """Monte Carlo mean of g_i / (n P(i)) matches the plain average of g within 3 SE."""
    rng = np.random.default_rng(seed)
    priorities = rng.uniform(0.2, 4.0, size)
    probs = sampling_probabilities(priorities, 0.7)
    gradients = rng.normal(0.0, 1.0, size)
    samples = rng.choice(size, size=draws, p=probs)
    terms = gradients[samples] / (size * probs[samples])
    estimate = float(terms.mean())
    spread = float(terms.std(ddof=1) / np.sqrt(draws))
    target = float(gradients.mean())
    deviation = abs(estimate - target)
    return CheckResult(
        name="importance-weight unbiasedness at beta=1",
        measured=deviation,
        threshold=sigmas * spread,
        passed=deviation < sigmas * spread,
        detail=f"|MC mean - plain mean| vs {sigmas} standard errors",
    )


def validate_samplers(draws: int = 1_000_000, seed: int = 0) -> list[CheckResult]:
    """Run the full sampler validation suite; every check must pass for release.
    ``draws`` (at least ``VALIDATION_SLOTS``) and ``seed`` (at least 0) are checked first."""
    _check_count("draws", draws, VALIDATION_SLOTS)
    _check_count("seed", seed, 0)
    results = []
    for alpha in (0.0, 0.6, 0.7, 1.0):
        rng = np.random.default_rng(seed + 7)
        results.append(check_sumtree_distribution(alpha, rng.uniform(0.1, 5.0, VALIDATION_SLOTS), rng, draws=draws))
        rng = np.random.default_rng(seed + 11)
        results.append(check_rank_distribution(alpha, rng.uniform(0.1, 5.0, VALIDATION_SLOTS), rng, draws=draws))
    results.append(check_tree_conservation(seed=seed + 3))
    results.append(check_partition_masses())
    results.append(check_partition_masses(n=1000, alpha=0.0, k=10))
    results.append(check_is_unbiasedness(draws=draws, seed=seed + 19))
    return results
