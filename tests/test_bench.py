import argparse
import csv
import dataclasses

import numpy as np
import pytest

from prioritized_replay import RunConfig, SumTree, bench, run_training
from prioritized_replay.bench import (
    RAW_COLUMNS,
    SUMMARY_COLUMNS,
    SweepConfig,
    SweepConfigError,
    check_partition_masses,
    check_rank_distribution,
    check_sumtree_distribution,
    check_tree_conservation,
    check_is_unbiasedness,
    expand_runs,
    load_sweep_config,
    run_sweep,
    validate_samplers,
    write_results,
)
from prioritized_replay.cli import build_parser, main

TINY = dict(
    sizes=(2, 3),
    strategies=("uniform", "greedy_td"),
    representations=("tabular",),
    seeds=(1, 2),
    budget=50_000,
    jobs=1,
)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# -- grid expansion -------------------------------------------------------------


def skipped(run):
    """Whether ``run_sweep`` records ``run`` as skipped: oracle cells above the cap."""
    return run.strategy == "oracle" and run.n_states > bench.ORACLE_MAX_N


def test_grid_cardinality():
    config = SweepConfig(**TINY)
    runs = expand_runs(config)
    assert len(runs) == 2 * 2 * 1 * 2
    assert all(isinstance(run, RunConfig) for run in runs)
    assert not any(skipped(run) for run in runs)


def test_default_grid_shape():
    runs = expand_runs(SweepConfig())
    assert len(runs) == 8 * 5 * 2 * 10
    capped = [run for run in runs if skipped(run)]
    assert all(run.strategy == "oracle" and run.n_states > 12 for run in capped)
    assert len(capped) == 2 * 2 * 10  # oracle at n = 14, 16 for both representations


def test_oracle_skipped_beyond_the_cap():
    config = SweepConfig(
        sizes=(12, 14), strategies=("oracle",), representations=("tabular",), seeds=(1,), jobs=1
    )
    runs = expand_runs(config)
    assert [skipped(run) for run in runs] == [False, True]


def test_config_validation(tmp_path, capsys):
    with pytest.raises(SweepConfigError):
        SweepConfig(sizes=(1,))
    with pytest.raises(SweepConfigError):
        SweepConfig(sizes=(18,))
    with pytest.raises(SweepConfigError):
        SweepConfig(strategies=("magic",))
    with pytest.raises(SweepConfigError):
        SweepConfig(seeds=())
    # rejected at construction rather than partway through a sweep
    for bad in (
        dict(seeds=(1, 1)),
        dict(alpha=-0.1),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(beta0=float("nan")),
        dict(beta0=-0.1),
        dict(beta0=1.5),
        dict(eta=float("nan")),
        dict(eta=float("inf")),
        dict(eta=0.0),
        dict(eta=-0.25),
        dict(jobs=0),
        dict(jobs=-1),
        dict(jobs=1.5),
        # every seed is checked, not only the first
        dict(seeds=(1, -1)),
    ):
        with pytest.raises(SweepConfigError):
            SweepConfig(**bad)
    # a repeated grid value would run its cells twice; the message names the axis
    for axis, repeated in (
        ("sizes", (2, 2)),
        ("strategies", ("uniform", "uniform")),
        ("representations", ("tabular", "tabular")),
    ):
        with pytest.raises(SweepConfigError, match=f"{axis} must be distinct"):
            SweepConfig(**{axis: repeated})
    SweepConfig(alpha=0.0, beta0=0.0, jobs=1)
    SweepConfig(beta0=1.0)
    # a bare seed count below 1 is named as such, in files and in flags
    path = tmp_path / "sweep.cfg"
    path.write_text("seeds = 0\n")
    with pytest.raises(SweepConfigError, match="sweep.cfg:1: seeds must be an integer of at least 1, got 0"):
        load_sweep_config(path)
    for count in ("0", "-3"):
        assert main(["sweep", "--seeds", count]) == 1
        assert f"seeds must be an integer of at least 1, got {count}" in capsys.readouterr().err


def test_an_empty_grid_is_rejected():
    """Every knob is checked through the RunConfig of a grid cell, so a grid
    without cells would let a bad knob through."""
    for axis in ("sizes", "strategies", "representations", "seeds"):
        with pytest.raises(SweepConfigError, match=axis):
            SweepConfig(**{axis: ()}, budget=0)


def test_a_sweep_config_builds_one_run_config_per_cell_not_per_seed(monkeypatch):
    """Validation costs O(cells + seeds): each (size, strategy,
    representation) builds one RunConfig, and each seed is checked once."""
    import prioritized_replay.bench as bench

    built, original = [], bench.RunConfig
    monkeypatch.setattr(bench, "RunConfig", lambda **kwargs: built.append(kwargs) or original(**kwargs))
    SweepConfig(sizes=(2, 3), strategies=("uniform", "greedy_td"), seeds=tuple(range(50)))
    assert len(built) == 2 * 2 * 2
    for position in (0, 1, 25, 49):
        seeds = list(range(50))
        seeds[position] = -1
        with pytest.raises(SweepConfigError, match="seed"):
            SweepConfig(sizes=(2, 3), seeds=tuple(seeds))


# -- config files ---------------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# benchmark grid\n"
        "sizes = 2,4\n"
        "strategies = uniform, rank_stochastic\n"
        "seeds = 1,2,3\n"
        "budget = 1000\n"
        "clip_td = off\n"
        "use_is_weights = on\n"
        "eta = 0.25\n"
    )
    config = load_sweep_config(path)
    assert config.sizes == (2, 4)
    assert config.strategies == ("uniform", "rank_stochastic")
    assert config.seeds == (1, 2, 3)
    assert config.budget == 1000
    assert config.clip_td is False and config.use_is_weights is True


def test_config_file_overrides(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("sizes = 2,4\nbudget = 1000\n")
    config = load_sweep_config(path, {"budget": 77, "jobs": None})
    assert config.budget == 77
    assert config.sizes == (2, 4)


def test_config_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sizes = 2\nnot_a_key = 5\n")
    with pytest.raises(SweepConfigError, match="bad.cfg:2"):
        load_sweep_config(path)
    path.write_text("budget = soon\n")
    with pytest.raises(SweepConfigError, match="bad.cfg:1"):
        load_sweep_config(path)
    path.write_text("just some words\n")
    with pytest.raises(SweepConfigError, match="KEY = VALUE"):
        load_sweep_config(path)


@pytest.mark.parametrize("word, value", [("on", True), ("YES", True), ("1", True), ("Off", False), ("no", False), ("0", False)])
def test_on_off_words_read_the_same_in_files_and_flags(tmp_path, word, value):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"clip_td = {word}\n")
    assert load_sweep_config(path).clip_td is value
    assert build_parser().parse_args(["sweep", "--clip-td", word]).clip_td is value


def test_a_bad_on_off_word_is_refused_alike_in_files_and_flags(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("use_is_weights = maybe\n")
    with pytest.raises(SweepConfigError, match="sweep.cfg:1: expected on or off, got 'maybe'"):
        load_sweep_config(path)
    assert main(["sweep", "--is-weights", "maybe"]) == 1
    assert "expected on or off, got 'maybe'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, text, value",
    [
        pytest.param("sizes", "2,4", (2, 4), id="sizes"),
        pytest.param("sizes", "8", (8,), id="one-size"),
        pytest.param("strategies", "uniform, greedy_td", ("uniform", "greedy_td"), id="strategies"),
        pytest.param("representations", "linear", ("linear",), id="representations"),
        # a bare seed count N means seeds 1..N in both places
        pytest.param("seeds", "3", (1, 2, 3), id="seed-count"),
        pytest.param("seeds", "4,7", (4, 7), id="seed-list"),
        pytest.param("seeds", "5,", (5,), id="one-seed"),
    ],
)
def test_lists_read_the_same_in_files_and_flags(tmp_path, key, text, value):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"{key} = {text}\n")
    assert getattr(load_sweep_config(path), key) == value
    assert getattr(build_parser().parse_args(["sweep", f"--{key}", text]), key) == value


def test_files_and_flags_take_the_sweep_configs_keys():
    """Each SweepConfig field is one setting: one sweep flag, and a key the
    text parser reads; any other key is refused."""
    keys = [field.name for field in dataclasses.fields(SweepConfig)]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        action.dest: action.option_strings
        for action in subparsers.choices["sweep"]._actions
        if action.dest not in ("help", "config")
    }
    assert flags == {
        key: ["--is-weights" if key == "use_is_weights" else "--" + key.replace("_", "-")] for key in keys
    }
    texts = {
        "sizes": ("2,4", (2, 4)),
        "strategies": ("uniform", ("uniform",)),
        "representations": ("linear", ("linear",)),
        "seeds": ("3", (1, 2, 3)),
        "budget": ("1000", 1000),
        "alpha": ("0.5", 0.5),
        "beta0": ("0.25", 0.25),
        "eta": ("0.125", 0.125),
        "clip_td": ("on", True),
        "use_is_weights": ("off", False),
        "jobs": ("2", 2),
        "out_dir": ("results", "results"),
    }
    assert list(texts) == keys
    for key, (text, value) in texts.items():
        assert bench._parse_value(key, text) == value
    with pytest.raises(SweepConfigError, match="unknown configuration key 'mystery'"):
        bench._parse_value("mystery", "4")


# -- sweeps ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sweep(SweepConfig(**TINY))


def test_raw_schema_is_stable(tiny_sweep, tmp_path):
    raw_rows, summary_rows = tiny_sweep
    raw_path, summary_path = write_results(raw_rows, summary_rows, tmp_path)
    with open(raw_path, newline="") as handle:
        assert tuple(csv.DictReader(handle).fieldnames) == RAW_COLUMNS
    with open(summary_path, newline="") as handle:
        assert tuple(csv.DictReader(handle).fieldnames) == SUMMARY_COLUMNS


def test_raw_rows_cover_the_grid(tiny_sweep):
    raw_rows, _ = tiny_sweep
    assert len(raw_rows) == 8
    assert all(row["censored"] == "false" for row in raw_rows)
    assert all(int(row["updates"]) > 0 for row in raw_rows)
    assert all(int(row["transitions"]) == 2 ** (int(row["n"]) + 1) - 2 for row in raw_rows)
    # skipped cells between run cells, on the pool path: each run's result
    # lands on its own cell's row
    config = SweepConfig(
        sizes=(3, 13), strategies=("oracle", "uniform"), representations=("tabular",), seeds=(1, 2),
        budget=1000, jobs=2,
    )
    raw_rows, _ = run_sweep(config)
    assert len(raw_rows) == 8
    for row in raw_rows:
        if row["n"] == 13 and row["strategy"] == "oracle":
            assert (row["updates"], row["censored"]) == ("", "skipped")
            continue
        result = run_training(
            RunConfig(row["n"], row["strategy"], row["representation"], row["seed"], budget=1000)
        )
        assert (row["updates"], row["censored"]) == (result.updates, "false" if result.converged else "true")


def test_rerun_is_identical_apart_from_wall_clock(tiny_sweep):
    raw_rows, summary_rows = tiny_sweep
    again_raw, again_summary = run_sweep(SweepConfig(**TINY))
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert strip(raw_rows) == strip(again_raw)
    assert summary_rows == again_summary


def test_parallel_execution_matches_serial(tiny_sweep):
    raw_rows, _ = tiny_sweep
    parallel_raw, _ = run_sweep(SweepConfig(**{**TINY, "jobs": 2}))
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert strip(raw_rows) == strip(parallel_raw)


def test_summary_statistics_are_correct(tiny_sweep):
    raw_rows, summary_rows = tiny_sweep
    for summary in summary_rows:
        cell = [
            int(r["updates"])
            for r in raw_rows
            if (r["n"], r["strategy"], r["representation"])
            == (summary["n"], summary["strategy"], summary["representation"])
        ]
        assert float(summary["median"]) == float(np.median(cell))
        assert summary["min"] == min(cell)
        assert summary["max"] == max(cell)
        assert summary["n_censored"] == 0


def test_skipped_oracle_rows_are_marked():
    raw_rows, summary_rows = run_sweep(
        SweepConfig(
            sizes=(13,), strategies=("oracle",), representations=("tabular",), seeds=(1, 2), jobs=1
        )
    )
    assert all(row["censored"] == "skipped" and row["updates"] == "" for row in raw_rows)
    assert summary_rows[0]["median"] == ""


def test_censoring_is_counted():
    raw_rows, summary_rows = run_sweep(
        SweepConfig(
            sizes=(6,), strategies=("uniform",), representations=("tabular",), seeds=(1, 2),
            budget=300, jobs=1,
        )
    )
    assert all(row["censored"] == "true" for row in raw_rows)
    assert summary_rows[0]["n_censored"] == 2
    assert float(summary_rows[0]["median"]) == 300


# -- validation checks -------------------------------------------------------------


def test_quick_validation_suite_passes():
    results = validate_samplers(draws=200_000, seed=1)
    for result in results:
        assert result.passed, result.line()


def test_corrupted_tree_fails_conservation():
    tree = SumTree(64)
    rng = np.random.default_rng(0)
    for i in range(64):
        tree.set_leaf(i, float(rng.uniform(0.1, 2.0)))
    tree.nodes[2] += 0.5  # corrupt an internal node
    result = check_tree_conservation(tree=tree)
    assert not result.passed
    assert "FAIL" in result.line()


def test_individual_checks_report_measured_values():
    rng = np.random.default_rng(7)
    check = check_sumtree_distribution(0.6, rng.uniform(0.1, 5.0, 16), rng, draws=100_000)
    assert check.passed and 0 <= check.measured < check.threshold
    rng = np.random.default_rng(11)
    check = check_rank_distribution(0.6, rng.uniform(0.1, 5.0, 16), rng, draws=100_000)
    assert check.passed
    check = check_partition_masses()
    assert check.passed
    check = check_is_unbiasedness(draws=100_000)
    assert check.passed


# -- command line -------------------------------------------------------------------


def test_cli_validate_exits_zero(capsys):
    assert main(["validate", "--draws", "100000"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "checks passed" in out


def test_cli_validate_exit_code_on_failure(monkeypatch, capsys):
    from prioritized_replay import bench

    def broken(*args, **kwargs):
        return [bench.CheckResult("broken", 1.0, 0.5, False)]

    monkeypatch.setattr("prioritized_replay.cli.validate_samplers", broken)
    assert main(["validate"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert main(["sweep", "--sizes", "2", "--budget", "not-a-number"]) == 1
    missing = tmp_path / "nope.cfg"
    assert main(["sweep", str(missing)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 4\n")
    assert main(["sweep", str(bad)]) == 1
    assert main(["not-a-command"]) == 1
    # validate's draws fill at least one minibatch of its 16-slot checks, and
    # seeds start at 0, as sweep seeds do
    capsys.readouterr()
    for flags, message in (
        (["--draws", "0"], "draws must be an integer of at least 16, got 0"),
        (["--draws", "-5"], "draws must be an integer of at least 16, got -5"),
        (["--draws", "15"], "draws must be an integer of at least 16, got 15"),
        (["--draws", "many"], "invalid literal"),
        (["--seed", "-20"], "seed must be an integer of at least 0, got -20"),
    ):
        assert main(["validate", *flags]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    for bad in (dict(draws=15), dict(draws=0), dict(draws=True), dict(seed=-20), dict(seed=1.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            validate_samplers(**bad)


def test_cli_sweep_writes_files(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--sizes", "2",
            "--strategies", "uniform",
            "--representations", "tabular",
            "--seeds", "2",
            "--budget", "50000",
            "--jobs", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    raw = read_rows(tmp_path / "runs.csv")
    assert len(raw) == 2 and {r["seed"] for r in raw} == {"1", "2"}
    assert (tmp_path / "summary.csv").exists()


def test_cli_out_dir_defaults_to_bench_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "sweep",
            "--sizes", "2",
            "--strategies", "uniform",
            "--representations", "tabular",
            "--seeds", "1",
            "--budget", "50000",
            "--jobs", "1",
        ]
    )
    assert code == 0
    assert len(read_rows(tmp_path / "bench_out" / "runs.csv")) == 1
