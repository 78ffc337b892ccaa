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

from . import DEFAULT_SEED, estimators, gof, mh
from .report import POOLING_DEFAULTS, RunConfig, run_and_report


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
                        help="accepted and ignored: the replicate engine "
                        "picks its own threads, and no output depends on them")

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
_COMMON_KEYS = ("seed", "reps", "out", "figures", "workers")
# config-file keys that take an integer; the list keys take a list of them
_INT_KEYS = ("seed", "reps", "N", "burn_in", "samples", "bins", "workers",
             "sizes", "k_range")
_LIST_KEYS = ("sizes", "k_range")
# config-file keys that take a number, integer or not
_FLOAT_KEYS = ("p", "sigma", "proposal_sd")
# config-file keys of other types: the JSON type each takes, as messages say it
_TYPED_KEYS = {"figures": (bool, "true or false"), "out": (str, "a string")}


def _check_file_values(parser: argparse.ArgumentParser, values) -> None:
    """Reject config-file keys that no subcommand knows, integer keys given
    anything but integers, number keys given anything but numbers (bools
    included in both) and other keys given a value of the wrong JSON type, as
    usage errors (exit 2)."""
    if not isinstance(values, dict):
        parser.error("config file must hold a JSON object")
    known = set(_COMMON_KEYS).union(*_OPTION_KEYS.values())
    for key, value in values.items():
        if key not in known:
            parser.error(f"config file: unknown key {key!r}")
        items = value if key in _LIST_KEYS else [value]
        if key in _INT_KEYS and not (
                type(items) is list and items and all(type(v) is int for v in items)):
            kind = "a list of integers" if key in _LIST_KEYS else "an integer"
            parser.error(f"config file: {key!r} must be {kind}, got {value!r}")
        if key in _FLOAT_KEYS and type(value) not in (int, float):
            parser.error(f"config file: {key!r} must be a number, got {value!r}")
        if key in _TYPED_KEYS and type(value) is not _TYPED_KEYS[key][0]:
            parser.error(f"config file: {key!r} must be {_TYPED_KEYS[key][1]}, "
                         f"got {value!r}")


def _check_options(parser: argparse.ArgumentParser, subcommand: str,
                   options: dict, n_reps: int | None) -> None:
    """Reject option values a study cannot run with, as usage errors (exit 2)."""
    min_reps = 2 if subcommand in ("estimator", "all") else 1
    if n_reps is not None and n_reps < min_reps:
        parser.error(f"--reps must be at least {min_reps}, got {n_reps}")
    if subcommand == "pooling":
        p = options.get("p", POOLING_DEFAULTS["p"])
        if not 0.0 < p < 1.0:
            parser.error(f"--p must lie strictly in (0, 1), got {p}")
        N = options.get("N", POOLING_DEFAULTS["N"])
        k_range = tuple(options.get("k_range", POOLING_DEFAULTS["k_range"]))
        if len(k_range) != 2 or not 2 <= k_range[0] < k_range[1] <= N:
            parser.error(f"--k-range must be LO:HI with 2 <= LO < HI <= --N "
                         f"{N}, got {k_range}")
        lo, hi = k_range
        if not any(N % k == 0 for k in range(lo, hi + 1)):
            parser.error(f"--N {N} has no divisor in --k-range {lo}:{hi}")
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
    if subcommand == "estimator":
        sigma = options.get("sigma", estimators.EstimatorStudyPlan.true_sd)
        if not (math.isfinite(sigma) and sigma > 0):
            parser.error(f"--sigma must be positive and finite, got {sigma}")
        for n in options.get("sizes", estimators.EstimatorStudyPlan.sample_sizes):
            if n < 4:
                parser.error(f"--sizes: sample size {n} is below 4")


def parse_config(argv: list[str]) -> RunConfig:
    """Parse argv into a RunConfig, applying flag > config file > default."""
    parser = build_parser()
    args = parser.parse_args(argv)
    file_values: dict = {}
    if args.config is not None:
        file_values = json.loads(Path(args.config).read_text())
        _check_file_values(parser, file_values)

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
    n_reps = pick("reps", None)
    _check_options(parser, args.subcommand, options, n_reps)
    return RunConfig(
        subcommand=args.subcommand,
        root_seed=int(pick("seed", DEFAULT_SEED)),
        n_reps=n_reps,
        output_dir=Path(pick("out", default_out)),
        emit_figures=bool(pick("figures", False)),
        options=options,
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
