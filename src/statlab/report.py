"""Report emission: CSV tables, JSON summaries, and SVG figures per subcommand.

Runners compute and return tables (file name -> columns), figures (file name
-> a call that draws its SVG text), a summary and warnings; ``run_and_report``
alone writes them, and draws the figures only when the run asks for them.
Rerunning with the same configuration produces byte-identical tables.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__, estimators, figures, gof, mh, numerics, pooling

# The versions byte-identity rests on: numpy's Philox and Generator.random,
# and scipy's ndtri.
ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__, "statlab": __version__}


@dataclass
class RunConfig:
    plans: dict  # study name -> its plan, in the order the studies run
    root_seed: int
    output_dir: Path = Path("statlab_out")
    emit_figures: bool = False


# Rows formatted per write: a chunk's cells and text take under 200 KB at once.
_CHUNK_ROWS = 1024
# The cell format of a column by dtype kind: integers as they are, floats to
# 10 significant digits with a '.' decimal (the bytes of "{:.10g}".format,
# inf, nan and -0 included), strings unchanged.
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.10g", "U": "%s"}


def write_table(path: Path, columns: dict[str, Sequence]) -> None:
    """Write a CSV table given as header name -> column, in that order.

    Each row is formatted by one ``%`` format, ``_CHUNK_ROWS`` rows at a
    time, so the strings of a long table are never all held at once.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    if len({len(a) for a in arrays}) > 1:
        raise ValueError("table columns must have equal length")
    for a in arrays:
        if a.dtype.kind not in _CELL_FORMATS:
            raise TypeError(f"cannot format a column of dtype {a.dtype}")
    row = ",".join(_CELL_FORMATS[a.dtype.kind] for a in arrays) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _CHUNK_ROWS):
            chunk = [a[start:start + _CHUNK_ROWS].tolist() for a in arrays]
            fh.write("".join(map(row.__mod__, zip(*chunk))))


def _overlay(edges, counts, n, reference, column, overlay, title, xlabel):
    """A histogram of ``n`` samples with ``counts`` on ``edges`` beside a
    reference density whose bin averages are ``reference``: the overlay table
    (the averages under ``column``), the sup distance between the two, and the
    chart, to draw, with the ``overlay`` curve drawn over the bars."""
    empirical, distance = numerics.density_vs_reference(counts, n, edges,
                                                        reference)
    table = {"bin_lo": edges[:-1], "bin_hi": edges[1:],
             "empirical_density": empirical, column: reference}
    return table, distance, partial(
        figures.histogram_chart, list(edges), list(empirical), overlay=overlay,
        title=title, xlabel=xlabel)


def run_pooling(plan: pooling.PoolingPlan, root_seed: int):
    p, N, n_reps, candidates = plan.p, plan.N, plan.n_reps, plan.candidates
    best_k, best_cost = pooling.optimal_pool_size_integer(N, p, candidates)
    cont = pooling.optimal_pool_size_continuous(p)
    k_root = pooling.optimal_pool_size_root(p)
    helps = pooling.pooling_helps(p)
    ratios = [pooling.savings_ratio(k, p) for k in candidates]
    best_ratio = ratios[candidates.index(best_k)]
    warnings = []
    if not helps:
        warnings.append(
            f"pooling cannot beat individual testing at p={p} (it needs p < "
            f"{pooling.POOLING_HELPS_BELOW:.4f}); test individually"
        )
    elif best_ratio <= 1.0:
        warnings.append(
            f"no candidate pool size beats individual testing at p={p}: the "
            f"best, k={best_k}, has savings ratio {best_ratio:.4f}; test "
            f"individually"
        )
    if n_reps < 2:
        warnings.append(f"--reps {n_reps} gives no spread: simulated_sd reads 0 "
                        f"unmeasured; use --reps 2 or more")

    costs = [pooling.simulate_pooling(N, k, p, n_reps, root_seed)
             for k in candidates]
    ks, curve = pooling.cost_curve(N, p, *plan.k_range)
    tables = {
        "pooling_candidates.csv": {
            "k": candidates,
            "n_pools": [N // k for k in candidates],
            "expected_tests_analytic": [
                pooling.expected_tests(k, N // k, p) for k in candidates],
            "simulated_mean": [c.mean for c in costs],
            "simulated_sd": [c.sd for c in costs],
            "savings_ratio": ratios,
        },
        "pooling_cost_curve.csv": {"k": ks, "expected_tests": curve},
    }
    figs = {"pooling_cost_curve.svg": partial(
        figures.line_chart, ("expected tests", list(ks), list(curve)),
        title=f"Expected tests vs pool size (N={N}, p={p})",
        xlabel="pool size k", ylabel="expected number of tests")}

    summary = {
        "p": p,
        "N": N,
        "n_reps": n_reps,
        "best_integer_k": best_k,
        "best_integer_expected_tests": best_cost,
        "pooling_helps": helps,
        "pooling_helps_integer": pooling.pooling_helps_integer(p),
        "continuous_optimum_k": cont.k,
        "continuous_optimum_at_boundary": cont.at_boundary,
        "bisection_cross_check_k": k_root,
        "savings_ratio_at_best_k": best_ratio,
    }
    return tables, figs, summary, warnings


def run_mh(plan: mh.MhConfig, root_seed: int):
    warnings = []
    defaults = mh.MhConfig()
    if plan.burn_in < defaults.burn_in or plan.n_samples < defaults.n_samples:
        warnings.append(
            "short chain: burn-in and/or sample count below the defaults "
            f"({defaults.burn_in}/{defaults.n_samples}); results may be noisy"
        )

    result = mh.run_chain(plan, root_seed)
    # near 1, tiny steps are nearly all taken; near 0, long steps are nearly
    # all refused: either way the chain barely explores the target
    if not 0.05 <= result.acceptance_rate <= 0.95:
        warnings.append(
            f"acceptance rate {result.acceptance_rate:.4f} lies outside "
            f"[0.05, 0.95]: the chain mixes too slowly to stand for the "
            f"target; tune --proposal-sd")
    grid = np.linspace(mh.EDGES[0], mh.EDGES[-1], 201)
    pdf = [mh.pdf(y) for y in grid]
    histogram, distance, chart = _overlay(
        mh.EDGES, result.counts, plan.n_samples,
        mh.binned_true_density(mh.EDGES), "true_density_bin_avg",
        ("true density", list(grid), pdf),
        "Metropolis-Hastings samples vs true density", "y")
    tables = {"mh_histogram.csv": histogram,
              "mh_true_density.csv": {"y": grid, "pdf": pdf}}
    figs = {"mh_density.svg": chart}

    summary = {
        "normalizing_constant": mh.normalizing_constant(),
        "proposal_sd": plan.proposal_sd,
        "burn_in": plan.burn_in,
        "n_samples": plan.n_samples,
        "acceptance_rate": result.acceptance_rate,
        "sample_mean": result.mean,
        "sample_variance": result.variance,
        "target_variance_quadrature": mh.second_moment(),
        "density_distance": distance,
    }
    return tables, figs, summary, warnings


def run_estimator(plan: estimators.EstimatorStudyPlan, root_seed: int):
    dists = estimators.run_estimator_study(plan, root_seed)
    keys, stats = list(dists), [numerics.summarize(v) for v in dists.values()]
    tables = {
        "estimator_distributions.csv": {
            "estimator": np.repeat([name for name, _ in dists], plan.n_reps),
            "n": np.repeat([n for _, n in dists], plan.n_reps),
            "replicate": np.tile(np.arange(plan.n_reps), len(dists)),
            "estimate": np.concatenate(list(dists.values())),
        },
        "estimator_summary.csv": {
            "estimator": [name for name, _ in keys],
            "n": [n for _, n in keys],
            "mean": [s.mean for s in stats],
            "sd": [s.sd for s in stats],
            "q1": [s.q1 for s in stats],
            "median": [s.median for s in stats],
            "q3": [s.q3 for s in stats],
            "iqr": [s.iqr for s in stats],
        },
    }
    groups = [
        (f"{name} (n={n})",
         {"lo": float(vec.min()), "q1": s.q1, "median": s.median,
          "q3": s.q3, "hi": float(vec.max())})
        for ((name, n), vec), s in zip(dists.items(), stats)
    ]
    figs = {"estimator_box.svg": partial(
        figures.box_chart, groups,
        title="Sampling distributions of the scale estimators",
        ylabel="estimate of sigma", reference=plan.true_sd)}

    summary = {
        "true_sd": plan.true_sd,
        "n_reps": plan.n_reps,
        "iqr_of_distribution": {
            f"{name}_n{n}": s.iqr for (name, n), s in zip(keys, stats)
        },
    }
    return tables, figs, summary, []


def run_gof(plan: gof.GofPlan, root_seed: int):
    statistics = gof.simulate_uniform_gof(plan, root_seed)
    df = plan.bins - 1
    tables = {
        "gof_statistics.csv": {
            "n": np.repeat(list(statistics), plan.n_reps),
            "replicate": np.tile(np.arange(plan.n_reps), len(statistics)),
            "statistic": np.concatenate(list(statistics.values())),
        },
    }
    figs, warnings = {}, []
    if plan.bins in plan.sample_sizes:
        warnings.append(
            f"--sizes {plan.bins} equals --bins {plan.bins}: one expected count "
            f"per cell, too few for the chi-square reference, so its "
            f"shape_distance is large; use sizes of at least twice --bins")
    # one reference for every size; the distances are gof.shape_distance's
    ref_avg = gof.binned_chisq_density(df, gof.EDGES)
    mass = ref_avg.sum() * (gof.EDGES[1] - gof.EDGES[0])
    if mass < 0.95:
        warnings.append(
            f"the window [{gof.EDGES[0]:g}, {gof.EDGES[-1]:g}] holds only "
            f"{mass:.1%} of the chi-square df={df} mass and "
            f"shape_distance leaves the rest out; use fewer --bins")
    grid = np.linspace(gof.EDGES[0], gof.EDGES[-1], 201)
    if df == 1:  # the density is infinite at 0: start the curve after it
        grid = grid[1:]
    curve = (f"chi-square df={df}", list(grid),
             [gof.chisq_density(x, df) for x in grid])
    distances = {}
    for n, vec in statistics.items():
        (tables[f"gof_overlay_n{n}.csv"], distances[n],
         figs[f"gof_overlay_n{n}.svg"]) = _overlay(
            gof.EDGES, numerics.histogram_counts(vec, gof.EDGES), len(vec),
            ref_avg, "chisq_density_bin_avg", curve,
            f"Null distribution of the Pearson statistic (n={n})", "statistic")

    summary = {
        "bins": plan.bins,
        "df": df,
        "n_reps": plan.n_reps,
        "mean_statistic": {n: float(v.mean()) for n, v in statistics.items()},
        "shape_distance": distances,
    }
    return tables, figs, summary, warnings


_RUNNERS = {
    "pooling": run_pooling,
    "mh": run_mh,
    "estimator": run_estimator,
    "gof": run_gof,
}


def run_and_report(config: RunConfig) -> list[dict]:
    """Run the configured subcommand(s), write their tables, figures and
    summaries, and return the summary documents written."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".writable"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc

    docs = []
    for name, plan in config.plans.items():
        tables, figs, summary, warnings = _RUNNERS[name](plan, config.root_seed)
        # every chart is drawn before the study's first file is written, so a
        # chart that fails leaves nothing of the study on disk
        svgs = ({fig: draw() for fig, draw in figs.items()}
                if config.emit_figures else {})
        for table, columns in tables.items():
            write_table(out / table, columns)
        for fig, svg in svgs.items():
            (out / fig).write_text(svg)
        doc = {
            "tool": "statlab",
            "version": __version__,
            "environment": dict(ENVIRONMENT),
            "subcommand": name,
            "root_seed": config.root_seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "tables": list(tables),
            "figures": list(svgs),
            "warnings": warnings,
            "summary": summary,
        }
        try:
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a NaN or infinity, which JSON cannot hold
            raise ValueError(f"{name} summary: {exc}") from exc
        (out / f"{name}_summary.json").write_text(text + "\n")
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        docs.append(doc)
    return docs
