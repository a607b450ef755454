"""Command-line driver: benchmark sweeps and the sampler validation suite.

Exit codes: 0 on success, 1 on a usage/configuration error, 2 when a
validation check fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import (
    VALIDATION_SLOTS,
    SweepConfig,
    SweepConfigError,
    _parse_value,
    load_sweep_config,
    run_sweep,
    validate_samplers,
    write_results,
)
from .core import _check_count

USAGE_ERROR = 1
VALIDATION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; usage problems are exit 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _flag_type(parse, *args):
    """Flag type that reads its text as ``parse(*args, text)``; a ValueError's
    message becomes the usage error."""

    def read(raw: str):
        try:
            return parse(*args, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def _count(name: str, minimum: int, raw: str) -> int:
    value = int(raw)
    _check_count(name, value, minimum)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replay-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the cliff-walk benchmark grid and write CSV results")
    sweep.add_argument("config", nargs="?", help="optional KEY = VALUE configuration file")
    # each flag reads its text as a config file reads its key
    for setting in fields(SweepConfig):
        flag = setting.metadata["flag"] or "--" + setting.name.replace("_", "-")
        sweep.add_argument(
            flag, dest=setting.name, type=_flag_type(_parse_value, setting.name), help=setting.metadata["help"]
        )

    validate = sub.add_parser("validate", help="run the sampler micro-validation suite")
    validate.add_argument(
        "--draws", type=_flag_type(_count, "draws", VALIDATION_SLOTS), default=1_000_000,
        help="Monte Carlo draws per check",
    )
    validate.add_argument("--seed", type=_flag_type(_count, "seed", 0), default=0, help="base seed for the checks")
    return parser


def _sweep_command(args: argparse.Namespace) -> int:
    try:
        config = load_sweep_config(args.config, {f.name: getattr(args, f.name) for f in fields(SweepConfig)})
    except (SweepConfigError, OSError) as exc:
        print(f"replay-bench: configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raw_rows, summary_rows = run_sweep(config)
    raw_path, summary_path = write_results(raw_rows, summary_rows, config.out_dir)
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
