"""Command-line front end: statlab <subcommand> [--config FILE] plus the flags
``OPTIONS`` declares for it.  A flag beats the config file, which beats the
study plan's default; STATLAB_OUT sets the default output directory.
Exit status: 0 success, 2 usage error, 1 runtime error."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

from . import DEFAULT_SEED, estimators, gof, mh, pooling
from .report import RunConfig, run_and_report


def _parse_ints(sep: str) -> Callable[[str], tuple[int, ...]]:
    def integers(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(s) for s in text.split(sep))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected integers separated by {sep!r}, got {text!r}") from None
    return integers


class Option(NamedTuple):
    subcommands: tuple[str, ...]
    json_type: type  # float also takes integers; list is a list of integers
    parse: Callable[[str], object] | None  # the flag's value; None for a switch
    help: str


# Each study's plan and help, in the order `all` runs them.
_STUDIES = {
    "pooling": (pooling.PoolingPlan,
                "pooled blood testing costs and optimal pool size"),
    "mh": (mh.MhConfig, "Metropolis-Hastings sampling of the fixed target"),
    "estimator": (estimators.EstimatorStudyPlan,
                  "IQR-based vs usual scale estimator efficiency"),
    "gof": (gof.GofPlan, "chi-square statistic null-distribution study"),
}
_ANY = (*_STUDIES, "all")

# Every option, by config-file key; its flag is "--" + key with "_" as "-".
# The keys that `all` takes are run settings, the rest study options.
OPTIONS = {
    "seed": Option(_ANY, int, int, f"root RNG seed (default {DEFAULT_SEED})"),
    "reps": Option(("pooling", "estimator", "gof", "all"), int, int,
                   "override the number of simulation replicates"),
    "out": Option(_ANY, str, str, "output directory (default statlab_out)"),
    "figures": Option(_ANY, bool, None, "also emit SVG figures"),
    "workers": Option(_ANY, int, int, "at least 1, and ignored: no output depends on it"),
    "p": Option(("pooling",), float, float, "prevalence"),
    "N": Option(("pooling",), int, int, "population size"),
    "k_range": Option(("pooling",), list, _parse_ints(":"),
                      "pool-size range LO:HI, e.g. 2:10"),
    "burn_in": Option(("mh",), int, int, "chain steps discarded first"),
    "samples": Option(("mh",), int, int, "chain states kept"),
    "proposal_sd": Option(("mh",), float, float, "random-walk step sd"),
    "sizes": Option(("estimator", "gof"), list, _parse_ints(","),
                    "sample sizes N1,N2,..., e.g. 100,400"),
    "sigma": Option(("estimator",), float, float, "true sigma"),
    "bins": Option(("gof",), int, int, "number of equiprobable cells"),
}
_JSON_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
                    str: "a string", list: "a list of integers"}
# Option keys that name their plan's field differently.
PLAN_FIELDS = {"reps": "n_reps", "samples": "n_samples", "sizes": "sample_sizes",
               "sigma": "true_sd"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# Each option's flag, keyed by the plan field it sets.
_FIELD_FLAGS = {PLAN_FIELDS.get(key, key): _flag(key) for key in OPTIONS}


def make_plan(name: str, values: dict):
    """The plan of study ``name`` from the values whose key, renamed through
    ``PLAN_FIELDS``, names one of its fields; what is not given takes the
    plan's default.  The plan checks every value and raises ValueError naming
    the field it rejects.
    """
    plan = _STUDIES[name][0]
    fields = {f.name for f in dataclasses.fields(plan)}
    renamed = {PLAN_FIELDS.get(key, key): value for key, value in values.items()}
    return plan(**{f: v for f, v in renamed.items() if f in fields})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statlab",
        description="Analytic and simulated answers to four statistics "
        "problems, with reproducible reports.",
        epilog="Output directory default can also be set via the STATLAB_OUT "
        "environment variable; an explicit --out always wins.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _ANY:
        p = sub.add_parser(name, help=_STUDIES.get(
            name, (None, "run every subcommand"))[1])
        p.add_argument("--config", type=Path,
                       help="JSON config file with defaults for any flag")
        for key, option in OPTIONS.items():
            if name in option.subcommands:
                how = ({"type": option.parse} if option.parse
                       else {"action": "store_true", "default": None})
                p.add_argument(_flag(key), help=option.help, **how)
        # a value the parser accepts but a plan or config file rejects is
        # still this subcommand's usage error
        p.set_defaults(usage_error=p.error)
    return parser


def _read_config(usage_error: Callable[[str], NoReturn], path: Path) -> dict:
    """The config file's values as their flags give them; a file that cannot
    be read, text that is not JSON (or holds an integer too long to parse, or
    nests too deep), an unknown key, a value not of its key's JSON type (a
    bool is no number), an integer too large for a number key, or a string
    holding a NUL character is a usage error naming the file."""
    where = f"config file {path}"
    try:
        values = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        usage_error(f"{where}: {exc}")
    if not isinstance(values, dict):
        usage_error(f"{where} must hold a JSON object")
    for key, value in values.items():
        if key not in OPTIONS:
            usage_error(f"{where}: unknown key {key!r}")
        kind = OPTIONS[key].json_type
        item, items = (int, value) if kind is list else (kind, [value])
        if not (type(items) is list and items and all(
                type(v) is item or item is float and type(v) is int for v in items)):
            usage_error(f"{where}: {key!r} must be "
                        f"{_JSON_TYPE_NAMES[kind]}, got {value!r}")
        if kind is str and "\0" in value:  # no path can hold one
            usage_error(f"{where}: {key!r} must not hold a NUL character")
        try:
            values[key] = tuple(value) if kind is list else kind(value)
        except OverflowError:
            usage_error(f"{where}: {key!r} is out of range for a number")
    return values


def parse_config(argv: list[str] | None) -> RunConfig:
    """Parse argv into a RunConfig holding the plan of each study it runs, in
    run order; a value a study cannot take is a usage error naming its flag."""
    args = build_parser().parse_args(argv)
    file_values = ({} if args.config is None
                   else _read_config(args.usage_error, args.config))
    values = {key: value for key, value in file_values.items()
              if args.subcommand in OPTIONS[key].subcommands}
    values.update((key, value) for key, value in vars(args).items()
                  if key in OPTIONS and value is not None)
    if values.get("workers", 1) < 1:
        args.usage_error(f"--workers must be >= 1, got {values['workers']}")
    plans = {}
    for name in _STUDIES if args.subcommand == "all" else (args.subcommand,):
        try:
            plans[name] = make_plan(name, values)
        except ValueError as exc:
            # plan messages start with the field they reject and name any
            # other field they involve as "field = value"
            message = re.sub(r"^\w+|\b\w+(?= = )",
                             lambda m: _FIELD_FLAGS.get(m[0], m[0]), str(exc))
            args.usage_error(f"{name}: {message}" if args.subcommand == "all"
                             else message)
    return RunConfig(
        plans=plans,
        root_seed=values.get("seed", DEFAULT_SEED),
        output_dir=Path(values.get("out",
                                   os.environ.get("STATLAB_OUT") or "statlab_out")),
        emit_figures=values.get("figures", False),
    )


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, TypeError, OSError) as exc:
        print(f"statlab: {exc}", file=sys.stderr)
        return 2
    try:
        docs = run_and_report(config)
    except Exception as exc:
        print(f"statlab: {exc}", file=sys.stderr)
        return 1
    for doc in docs:
        print(f"{doc['subcommand']}: wrote {len(doc['tables'])} tables, "
              f"{len(doc['figures'])} figures to {config.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
