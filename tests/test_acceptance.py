"""Acceptance suite: one test per release criterion, each printing a PASS line.

Criteria 4 and 5 share one benchmark sweep (module-scoped fixture); everything
else runs standalone. Criteria 1, 3 and 6 run the validation suite's own checks
(``bench.check_*``) on this suite's seeds and thresholds. Run with
``pytest tests/test_acceptance.py -v`` for the per-criterion pass/fail lines.
"""

import time

import numpy as np
import pytest
from scipy import stats

from prioritized_replay import DEFAULT_EPSILON, RankStore, RunConfig, SumTree, run_training
from prioritized_replay.bench import (
    SweepConfig,
    check_is_unbiasedness,
    check_partition_masses,
    check_rank_distribution,
    check_sumtree_distribution,
    check_tree_conservation,
    run_sweep,
)

ALPHAS = (0.0, 0.6, 0.7, 1.0)
DRAWS = 1_000_000
FIXTURE_SIZE = 16


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS - {message}")


# -- criterion 1: sampler distributional correctness ------------------------------


def test_criterion_1_sampler_distributional_correctness():
    started = time.perf_counter()
    priorities = np.random.default_rng(2024).uniform(0.05, 4.0, FIXTURE_SIZE)
    for alpha in ALPHAS:
        check = check_sumtree_distribution(
            alpha, priorities, np.random.default_rng(1), draws=DRAWS, threshold=0.005
        )
        assert check.passed, check.line()
    for alpha in ALPHAS:
        check = check_rank_distribution(
            alpha, priorities, np.random.default_rng(2), draws=DRAWS, threshold=0.01
        )
        assert check.passed, check.line()

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"distribution checks took {elapsed:.1f}s"
    report(1, f"both samplers within tolerance on {DRAWS} draws per alpha in {elapsed:.1f}s")


# -- criterion 2: value-lookup oracle equivalence ----------------------------------


def test_criterion_2_find_by_value_matches_linear_scan():
    rng = np.random.default_rng(64)
    mismatches = 0
    for _ in range(100):
        leaves = rng.uniform(0.0, 10.0, 64)
        leaves[rng.random(64) < 0.2] = 0.0
        if leaves.sum() <= 0:
            leaves[0] = 1.0
        tree = SumTree(64)
        for i, v in enumerate(leaves):
            tree.set_leaf(i, float(v))
        queries = rng.uniform(0.0, tree.total, 10_000)
        queries = np.minimum(queries, np.nextafter(tree.total, 0.0))
        found = tree.find_many(queries)
        expected = np.searchsorted(np.cumsum(leaves), queries, side="right")
        mismatches += int(np.count_nonzero(found != expected))
    assert mismatches == 0
    report(2, "100 random 64-leaf trees x 10000 queries, zero mismatches")


# -- criterion 3: importance-weight unbiasedness ------------------------------------


def test_criterion_3_unbiasedness_at_full_correction():
    check = check_is_unbiasedness(draws=DRAWS, size=8, seed=8, sigmas=3.0)
    assert check.passed, check.line()
    report(3, f"|MC mean - plain mean| = {check.measured:.2e} < 3 SE = {check.threshold:.2e}")


# -- criteria 4 and 5: cliff-walk speedup reproduction -------------------------------


@pytest.fixture(scope="module")
def speedup_sweep():
    config = SweepConfig(sizes=(8, 10, 12, 14), seeds=tuple(range(1, 11)))
    started = time.perf_counter()
    raw_rows, summary_rows = run_sweep(config)
    elapsed = time.perf_counter() - started
    cells = {}
    for row in summary_rows:
        if row["median"] != "":
            cells[(row["n"], row["strategy"], row["representation"])] = {
                "median": float(row["median"]),
                "censored": int(row["n_censored"]),
            }
    return cells, elapsed


def median_of(cells, n, strategy, representation):
    return cells[(n, strategy, representation)]["median"]


def test_criterion_4_strategy_ordering_and_speedup(speedup_sweep):
    cells, elapsed = speedup_sweep
    for n in (8, 10, 12):
        oracle = median_of(cells, n, "oracle", "tabular")
        greedy = median_of(cells, n, "greedy_td", "tabular")
        uniform = median_of(cells, n, "uniform", "tabular")
        assert oracle <= greedy <= uniform, f"ordering violated at n={n}"
        assert cells[(n, "oracle", "tabular")]["censored"] == 0
    ratio = median_of(cells, 12, "uniform", "tabular") / median_of(cells, 12, "greedy_td", "tabular")
    assert ratio >= 10.0, f"uniform/greedy ratio {ratio:.1f} at n=12"
    for n in (8, 10, 12):
        uniform = median_of(cells, n, "uniform", "linear")
        assert median_of(cells, n, "rank_stochastic", "linear") < uniform
        assert median_of(cells, n, "proportional_stochastic", "linear") < uniform
    assert elapsed < 1800, f"sweep took {elapsed:.0f}s"
    report(4, f"ordering holds, n=12 uniform/greedy = {ratio:.1f}, sweep {elapsed:.0f}s")


def slope(cells, sizes, strategy, representation):
    points = [
        (n, median_of(cells, n, strategy, representation))
        for n in sizes
        if (n, strategy, representation) in cells
        and cells[(n, strategy, representation)]["censored"] == 0
    ]
    assert len(points) >= 3, f"not enough converged cells for {strategy}/{representation}"
    transitions = np.log([2 ** (n + 1) - 2 for n, _ in points])
    medians = np.log([m for _, m in points])
    return np.polyfit(transitions, medians, 1)[0], [n for n, _ in points]


def test_criterion_5_log_log_slope_gap(speedup_sweep):
    cells, _ = speedup_sweep
    sizes = (8, 10, 12, 14)
    oracle_slope, oracle_range = slope(cells, sizes, "oracle", "tabular")
    uniform_common, _ = slope(cells, oracle_range, "uniform", "tabular")
    gap = uniform_common - oracle_slope
    assert gap >= 0.5, f"uniform - oracle slope gap {gap:.2f}"
    # uniform's slope strictly dominates every prioritized strategy's
    gaps = {}
    for representation in ("tabular", "linear"):
        uniform_slope, _ = slope(cells, sizes, "uniform", representation)
        for strategy in ("greedy_td", "rank_stochastic", "proportional_stochastic"):
            strategy_slope, _ = slope(cells, sizes, strategy, representation)
            assert uniform_slope > strategy_slope, f"{strategy}/{representation} not dominated"
            gaps[(strategy, representation)] = uniform_slope - strategy_slope
    report(
        5,
        f"uniform - oracle slope gap {gap:.2f} >= 0.5 over n={oracle_range}; "
        f"uniform strictly above all prioritized slopes",
    )


# -- criterion 6: conservation and structure suite -----------------------------------


def test_criterion_6_conservation_and_structure():
    rng = np.random.default_rng(99)
    tree = SumTree(1024)
    for _ in range(100_000):
        tree.set_leaf(int(rng.integers(1024)), float(rng.uniform(0.0, 10.0)))
    check = check_tree_conservation(tree=tree, threshold=1e-6)
    assert check.passed, check.line()

    store = RankStore(capacity=128)
    for slot in range(128):
        store.insert(slot, float(rng.uniform(0, 1)))
        assert store.heap_ordered()
    for _ in range(1000):
        store.update(int(rng.integers(128)), float(rng.uniform(0, 5)))
        assert store.heap_ordered()

    store.sort()
    keys = store._keys
    assert all(a >= b for a, b in zip(keys, keys[1:]))

    for n, alpha, k in ((4096, 0.7, 16), (1024, 0.5, 8), (1000, 0.0, 10), (64, 1.0, 2)):
        check = check_partition_masses(n, alpha, k, threshold=1.0 / (2 * k))
        assert check.passed, check.line()
    report(6, "tree conservation, heap property, sort order, and partition balance all hold")


# -- criterion 7: training-loop conformance -------------------------------------------


@pytest.mark.parametrize("strategy", ["rank_stochastic", "proportional_stochastic"])
def test_criterion_7_loop_conformance(strategy):
    epsilon = DEFAULT_EPSILON
    budget = 4800

    stores = []
    replays = []
    done = {}

    def instrument(event, **data):
        if event == "store":
            stores.append(data)
        elif event == "replay":
            replays.append(data)
        else:
            done.update(data)

    config = RunConfig(
        n_states=4, strategy=strategy, seed=3, budget=budget, mse_threshold=0.0
    )
    run_training(config, instrument=instrument)

    # new transitions enter at the running maximum priority
    running_max = 0.0
    for event in stores:
        assert event["priority"] >= running_max
        running_max = max(running_max, event["priority"])

    # replayed transitions end up with priority |td| (plus the floor, proportional)
    for event in replays[:1000]:
        expected = abs(event["td_error"])
        if strategy == "proportional_stochastic":
            expected += epsilon
        assert event["priority"] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    # the annealed exponent hits exactly 1 when the budget is exhausted
    assert done["updates"] == budget
    assert done["beta"] == 1.0

    # with alpha = 0 and no correction the loop samples uniformly
    seen = []
    config = RunConfig(
        n_states=4, strategy=strategy, seed=5, budget=48_000, mse_threshold=0.0,
        alpha=0.0, beta0=0.0, use_is_weights=False,
    )
    run_training(
        config,
        instrument=lambda ev, **d: seen.append(d["slot"]) if ev == "replay" else None,
    )
    counts = np.bincount(seen, minlength=30)
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01, f"chi-square p={result.pvalue}"
    report(7, f"{strategy}: max-priority insertion, |td| overwrite, beta=1 at budget, uniform at alpha=0")


# -- criterion 8: desk-scale scope ----------------------------------------------------


def test_criterion_8_large_scale_results_are_out_of_scope():
    """Full game-benchmark results are not reproducible at desk scale by design;
    the samplers, weighting, and loop mechanics those results rest on are covered
    by criteria 1-3, 6, and 7, and the chain benchmark by criteria 4-5."""
    report(8, "covered by the property suites and loop conformance, not by replication")
