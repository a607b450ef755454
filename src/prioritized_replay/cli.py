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
    load_sweep_config,
    parse_on_off,
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


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _seed_spec(raw: str) -> tuple[int, ...]:
    """Either a seed count N (meaning 1..N) or an explicit comma list."""
    parts = _int_list(raw)
    if len(parts) == 1 and "," not in raw:
        return tuple(range(1, parts[0] + 1))
    return parts


def _on_off(raw: str) -> bool:
    try:
        return parse_on_off(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replay-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the cliff-walk benchmark grid and write CSV results")
    sweep.add_argument("config", nargs="?", help="optional KEY = VALUE configuration file")
    sweep.add_argument("--sizes", type=_int_list, help="comma-separated chain sizes, e.g. 2,4,8")
    sweep.add_argument("--strategies", type=_str_list, help="comma-separated strategy names")
    sweep.add_argument("--representations", type=_str_list, help="tabular,linear (default both)")
    sweep.add_argument("--seeds", type=_seed_spec, help="seed count N (runs 1..N) or a comma list")
    sweep.add_argument("--budget", type=int, help="update budget per run before censoring")
    sweep.add_argument("--alpha", type=float, help="prioritization exponent override")
    sweep.add_argument("--beta0", type=float, help="initial importance-sampling exponent override")
    sweep.add_argument("--eta", type=float, help="gradient step size")
    sweep.add_argument("--clip-td", type=_on_off, dest="clip_td", help="clip TD errors to [-1, 1]")
    sweep.add_argument(
        "--is-weights", type=_on_off, dest="use_is_weights", help="importance weights on|off"
    )
    sweep.add_argument("--jobs", type=int, help="parallel worker processes (default: cpu count)")
    sweep.add_argument("--out-dir", dest="out_dir", help="output directory for runs.csv/summary.csv")

    validate = sub.add_parser("validate", help="run the sampler micro-validation suite")
    validate.add_argument("--draws", type=int, default=1_000_000, help="Monte Carlo draws per check")
    validate.add_argument("--seed", type=int, default=0, help="base seed for the checks")
    return parser


def _sweep_command(args: argparse.Namespace) -> int:
    overrides = {
        key: getattr(args, key)
        for key in (
            "sizes",
            "strategies",
            "representations",
            "seeds",
            "budget",
            "alpha",
            "beta0",
            "eta",
            "clip_td",
            "use_is_weights",
            "jobs",
            "out_dir",
        )
    }
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
