"""Command-line driver: benchmark sweeps and the sampler validation suite.

Exit codes: 0 on success, 1 on a usage/configuration error, 2 when a
validation check fails.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    OUT_DIR_ENV,
    SweepConfig,
    SweepConfigError,
    _parse_value,
    load_sweep_config,
    run_sweep,
    validate_samplers,
    write_results,
)

USAGE_ERROR = 1
VALIDATION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; usage problems are exit 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# (flag, SweepConfig key, help); every flag reads its text as a config file
# reads its key
_SWEEP_FLAGS = (
    ("--sizes", "sizes", "comma-separated chain sizes, e.g. 2,4,8"),
    ("--strategies", "strategies", "comma-separated strategy names"),
    ("--representations", "representations", "tabular,linear (default both)"),
    ("--seeds", "seeds", "seed count N (runs 1..N) or a comma list"),
    ("--budget", "budget", "update budget per run before censoring"),
    ("--alpha", "alpha", "prioritization exponent override"),
    ("--beta0", "beta0", "initial importance-sampling exponent override"),
    ("--eta", "eta", "gradient step size"),
    ("--clip-td", "clip_td", "clip TD errors to [-1, 1]"),
    ("--is-weights", "use_is_weights", "importance weights on|off"),
    ("--jobs", "jobs", "parallel worker processes (default: cpu count)"),
    ("--out-dir", "out_dir", "output directory for runs.csv/summary.csv"),
)


def _value(key: str):
    """Flag type that reads the text with the config file's parser."""

    def parse(raw: str):
        try:
            return _parse_value(key, raw)
        except SweepConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replay-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the cliff-walk benchmark grid and write CSV results")
    sweep.add_argument("config", nargs="?", help="optional KEY = VALUE configuration file")
    for flag, key, text in _SWEEP_FLAGS:
        sweep.add_argument(flag, dest=key, type=_value(key), help=text)

    validate = sub.add_parser("validate", help="run the sampler micro-validation suite")
    validate.add_argument("--draws", type=int, default=1_000_000, help="Monte Carlo draws per check")
    validate.add_argument("--seed", type=int, default=0, help="base seed for the checks")
    return parser


def _sweep_command(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for _, key, _ in _SWEEP_FLAGS}
    try:
        if args.config:
            config = load_sweep_config(args.config, overrides)
        else:
            config = SweepConfig(**{k: v for k, v in overrides.items() if v is not None})
    except (SweepConfigError, OSError) as exc:
        print(f"replay-bench: configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out_dir = config.out_dir or os.environ.get(OUT_DIR_ENV) or "bench_out"
    raw_rows, summary_rows = run_sweep(config)
    raw_path, summary_path = write_results(raw_rows, summary_rows, out_dir)
    print(f"wrote {len(raw_rows)} runs to {raw_path}")
    print(f"wrote {len(summary_rows)} summary rows to {summary_path}")
    for row in summary_rows:
        print(
            f"n={row['n']:>2} {row['strategy']:<24} {row['representation']:<8} "
            f"median={row['median']} min={row['min']} max={row['max']} censored={row['n_censored']}"
        )
    return 0


def _validate_command(args: argparse.Namespace) -> int:
    results = validate_samplers(draws=args.draws, seed=args.seed)
    failures = 0
    for result in results:
        print(result.line())
        failures += 0 if result.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
        return VALIDATION_ERROR
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.command == "sweep":
        return _sweep_command(args)
    return _validate_command(args)


if __name__ == "__main__":
    sys.exit(main())
