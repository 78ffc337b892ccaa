"""Command-line front end.

Usage: statlab <subcommand> [--seed N] [--reps N] [--out DIR] [--figures]
[--config FILE] plus per-subcommand flags.  Flag values override config-file
values, which override built-in defaults.  The STATLAB_OUT environment
variable overrides the default output directory (flags still win).
Exit status: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import DEFAULT_SEED, gof, mh
from .report import RunConfig, run_and_report


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statlab",
        description="Analytic and simulated answers to four statistics "
        "problems, with reproducible reports.",
        epilog="Output directory default can also be set via the STATLAB_OUT "
        "environment variable; an explicit --out always wins.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"root RNG seed (default {DEFAULT_SEED})")
    common.add_argument("--reps", type=int, default=None,
                        help="override the number of simulation replicates")
    common.add_argument("--out", type=Path, default=None,
                        help="output directory (default statlab_out)")
    common.add_argument("--figures", action="store_true", default=None,
                        help="also emit SVG figures")
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file with defaults for any flag")
    common.add_argument("--workers", type=int, default=None,
                        help="worker threads for replicates (default 1)")

    p = sub.add_parser("pooling", parents=[common],
                       help="pooled blood testing costs and optimal pool size")
    p.add_argument("--p", type=float, default=None, help="prevalence")
    p.add_argument("--N", type=int, default=None, help="population size")
    p.add_argument("--k-range", type=_parse_range, default=None,
                   metavar="LO:HI", help="pool-size range, e.g. 2:10")

    m = sub.add_parser("mh", parents=[common],
                       help="Metropolis-Hastings sampling of the fixed target")
    m.add_argument("--burn-in", type=int, default=None)
    m.add_argument("--samples", type=int, default=None)
    m.add_argument("--proposal-sd", type=float, default=None)

    e = sub.add_parser("estimator", parents=[common],
                       help="IQR-based vs usual scale estimator efficiency")
    e.add_argument("--sizes", type=_parse_sizes, default=None,
                   metavar="N1,N2", help="sample sizes, e.g. 100,400")
    e.add_argument("--sigma", type=float, default=None, help="true sigma")

    g = sub.add_parser("gof", parents=[common],
                       help="chi-square statistic null-distribution study")
    g.add_argument("--bins", type=int, default=None)
    g.add_argument("--sizes", type=_parse_sizes, default=None,
                   metavar="N1,N2", help="sample sizes, e.g. 16,64")

    sub.add_parser("all", parents=[common], help="run every subcommand")
    return parser


_OPTION_KEYS = {
    "pooling": ("p", "N", "k_range"),
    "mh": ("burn_in", "samples", "proposal_sd"),
    "estimator": ("sizes", "sigma"),
    "gof": ("bins", "sizes"),
    "all": (),
}


def _check_options(parser: argparse.ArgumentParser, subcommand: str,
                   options: dict) -> None:
    """Reject option values a study cannot run with, as usage errors (exit 2)."""
    if subcommand == "pooling" and "p" in options:
        if not 0.0 < options["p"] < 1.0:
            parser.error(f"--p must lie strictly in (0, 1), got {options['p']}")
    if subcommand == "mh":
        sd = options.get("proposal_sd", mh.MhConfig.proposal_sd)
        if not (math.isfinite(sd) and sd > 0):
            parser.error(f"--proposal-sd must be positive and finite, got {sd}")
        burn_in = options.get("burn_in", mh.MhConfig.burn_in)
        if burn_in < 0:
            parser.error(f"--burn-in must be at least 0, got {burn_in}")
        samples = options.get("samples", mh.MhConfig.n_samples)
        if samples < 1:
            parser.error(f"--samples must be at least 1, got {samples}")
    if subcommand == "gof":
        bins = options.get("bins", gof.GofPlan.bins)
        if bins < 2:
            parser.error(f"--bins must be at least 2, got {bins}")
        for n in options.get("sizes", gof.GofPlan.sample_sizes):
            if n < bins or n % bins:
                parser.error(f"--sizes: sample size {n} is not a positive "
                             f"multiple of --bins {bins}")


def parse_config(argv: list[str]) -> RunConfig:
    """Parse argv into a RunConfig, applying flag > config file > default."""
    parser = build_parser()
    args = parser.parse_args(argv)
    file_values: dict = {}
    if args.config is not None:
        file_values = json.loads(Path(args.config).read_text())

    def pick(name, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return file_values[name]
        return default

    env_out = os.environ.get("STATLAB_OUT")
    default_out = Path(env_out) if env_out else Path("statlab_out")
    options = {}
    for key in _OPTION_KEYS[args.subcommand]:
        value = pick(key, None)
        if value is not None:
            options[key] = value
    _check_options(parser, args.subcommand, options)
    n_reps = pick("reps", None)
    if n_reps is not None and n_reps < 1:
        parser.error(f"--reps must be at least 1, got {n_reps}")
    return RunConfig(
        subcommand=args.subcommand,
        root_seed=int(pick("seed", DEFAULT_SEED)),
        n_reps=n_reps,
        output_dir=Path(pick("out", default_out)),
        emit_figures=bool(pick("figures", False)),
        options=options,
        n_workers=int(pick("workers", 1)),
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"statlab: {exc}", file=sys.stderr)
        return 2
    try:
        reports = run_and_report(config)
    except Exception as exc:
        print(f"statlab: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print(f"{report.subcommand}: wrote {len(report.tables)} tables, "
              f"{len(report.figures)} figures to {config.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
