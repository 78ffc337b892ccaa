"""Report emission: CSV tables, JSON summaries, and SVG figures per subcommand.

Runners compute and return tables (file name -> columns), figures (file name
-> SVG text), a summary and warnings; ``run_and_report`` alone writes them.
Rerunning with the same configuration produces byte-identical tables.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
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
    subcommand: str
    root_seed: int
    n_reps: int | None = None
    output_dir: Path = Path("statlab_out")
    emit_figures: bool = False
    options: dict = field(default_factory=dict)


# Option keys that name their plan's field differently.
PLAN_FIELDS = {"reps": "n_reps", "samples": "n_samples", "sizes": "sample_sizes",
               "sigma": "true_sd"}
_PLANS = {"pooling": pooling.PoolingPlan, "mh": mh.MhConfig,
          "estimator": estimators.EstimatorStudyPlan, "gof": gof.GofPlan}


def make_plan(name: str, options: dict, n_reps: int | None):
    """The plan of study ``name`` from option keys and a replicate count.

    What is not given takes the plan's default; the plan checks every value
    and raises ValueError naming the field it rejects.  The MH chain takes no
    replicate count.
    """
    values = {PLAN_FIELDS.get(key, key): value for key, value in options.items()}
    if n_reps is not None and name != "mh":
        values["n_reps"] = n_reps
    return _PLANS[name](**values)


# Rows formatted per write; bounds the cell strings held at once to about 1 MB.
_CHUNK_ROWS = 4096


def _format_column(values: np.ndarray) -> list[str]:
    """Cells of one homogeneous column: integers as they are, floats to 10
    significant digits with a '.' decimal, strings unchanged."""
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    if values.dtype.kind == "f":
        return list(map("{:.10g}".format, values.tolist()))
    if values.dtype.kind == "U":
        return values.tolist()
    raise TypeError(f"cannot format a column of dtype {values.dtype}")


def write_table(path: Path, columns: dict[str, Sequence]) -> None:
    """Write a CSV table given as header name -> column, in that order.

    Rows are formatted and written ``_CHUNK_ROWS`` at a time, so the cell
    strings of a long table are never all held at once.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    if len({len(a) for a in arrays}) > 1:
        raise ValueError("table columns must have equal length")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _CHUNK_ROWS):
            cells = [_format_column(a[start:start + _CHUNK_ROWS]) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def run_pooling(config: RunConfig):
    plan = make_plan("pooling", config.options, config.n_reps)
    p, N, n_reps, candidates = plan.p, plan.N, plan.n_reps, plan.candidates
    best_k, best_cost = pooling.optimal_pool_size_integer(N, p, candidates)
    cont = pooling.optimal_pool_size_continuous(p)
    k_root = pooling.optimal_pool_size_root(p)
    best_ratio = pooling.savings_ratio(best_k, p)
    warnings = []
    if not pooling.pooling_helps(p):
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

    costs = [
        pooling.simulate_pooling(
            pooling.PoolingDesign(N=N, k=k, n=N // k, p=p), n_reps,
            config.root_seed, experiment_id=f"pooling-k{k}",
        )
        for k in candidates
    ]
    ks, curve = pooling.cost_curve(N, p, *plan.k_range)
    tables = {
        "pooling_candidates.csv": {
            "k": candidates,
            "n_pools": [N // k for k in candidates],
            "expected_tests_analytic": [c.expected_tests_analytic for c in costs],
            "simulated_mean": [c.simulated_mean for c in costs],
            "simulated_sd": [c.simulated_sd for c in costs],
            "savings_ratio": [c.savings_ratio for c in costs],
        },
        "pooling_cost_curve.csv": {"k": ks, "expected_tests": curve},
    }
    figs = {}
    if config.emit_figures:
        figs["pooling_cost_curve.svg"] = figures.line_chart(
            ("expected tests", list(ks), list(curve)),
            title=f"Expected tests vs pool size (N={N}, p={p})",
            xlabel="pool size k",
            ylabel="expected number of tests",
        )

    summary = {
        "p": p,
        "N": N,
        "n_reps": n_reps,
        "best_integer_k": best_k,
        "best_integer_expected_tests": best_cost,
        "pooling_helps": pooling.pooling_helps(p),
        "pooling_helps_integer": pooling.pooling_helps_integer(p),
        "continuous_optimum_k": cont.k,
        "continuous_optimum_at_boundary": cont.at_boundary,
        "bisection_cross_check_k": k_root,
        "savings_ratio_at_best_k": best_ratio,
    }
    return tables, figs, summary, warnings


def run_mh(config: RunConfig):
    mh_config = make_plan("mh", config.options, config.n_reps)
    warnings = []
    defaults = mh.MhConfig()
    if (mh_config.burn_in < defaults.burn_in
            or mh_config.n_samples < defaults.n_samples):
        warnings.append(
            "short chain: burn-in and/or sample count below the defaults "
            f"({defaults.burn_in}/{defaults.n_samples}); results may be noisy"
        )

    density = mh.TargetDensity()
    result = mh.run_chain(mh_config, config.root_seed)
    true_avg = mh.binned_true_density(density, mh.EDGES)
    empirical, distance = numerics.density_vs_reference(
        result.counts, mh_config.n_samples, mh.EDGES, true_avg)
    grid = np.linspace(mh.EDGES[0], mh.EDGES[-1], 201)
    pdf = [density.pdf(y) for y in grid]
    tables = {
        "mh_histogram.csv": {
            "bin_lo": mh.EDGES[:-1],
            "bin_hi": mh.EDGES[1:],
            "empirical_density": empirical,
            "true_density_bin_avg": true_avg,
        },
        "mh_true_density.csv": {"y": grid, "pdf": pdf},
    }
    figs = {}
    if config.emit_figures:
        figs["mh_density.svg"] = figures.histogram_chart(
            list(mh.EDGES),
            list(empirical),
            overlay=("true density", list(grid), pdf),
            title="Metropolis-Hastings samples vs true density",
            xlabel="y",
        )

    summary = {
        "normalizing_constant": density.normalize(),
        "proposal_sd": mh_config.proposal_sd,
        "burn_in": mh_config.burn_in,
        "n_samples": mh_config.n_samples,
        "acceptance_rate": result.acceptance_rate,
        "sample_mean": result.mean,
        "sample_variance": result.variance,
        "target_variance_quadrature": density.second_moment(),
        "density_distance": distance,
    }
    return tables, figs, summary, warnings


def run_estimator(config: RunConfig):
    plan = make_plan("estimator", config.options, config.n_reps)
    result = estimators.run_estimator_study(plan, config.root_seed)
    dists = result.distributions
    keys, stats = list(result.summaries), list(result.summaries.values())
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
    figs = {}
    if config.emit_figures:
        groups = [
            (f"{name} (n={n})",
             {"lo": float(vec.min()), "q1": s.q1, "median": s.median,
              "q3": s.q3, "hi": float(vec.max())})
            for ((name, n), vec), s in zip(dists.items(), stats)
        ]
        figs["estimator_box.svg"] = figures.box_chart(
            groups,
            title="Sampling distributions of the scale estimators",
            ylabel="estimate of sigma",
            reference=plan.true_sd,
        )

    summary = {
        "true_sd": plan.true_sd,
        "n_reps": plan.n_reps,
        "iqr_of_distribution": {
            f"{name}_n{n}": s.iqr for (name, n), s in result.summaries.items()
        },
    }
    return tables, figs, summary, []


def run_gof(config: RunConfig):
    plan = make_plan("gof", config.options, config.n_reps)
    result = gof.simulate_uniform_gof(plan, config.root_seed)
    tables = {
        "gof_statistics.csv": {
            "n": np.repeat(list(result.statistics), plan.n_reps),
            "replicate": np.tile(np.arange(plan.n_reps), len(result.statistics)),
            "statistic": np.concatenate(list(result.statistics.values())),
        },
    }
    figs = {}
    # one reference for every size; the distances are gof.shape_distance's
    ref_avg = gof.binned_chisq_density(result.df, gof.EDGES)
    grid = np.linspace(gof.EDGES[0], gof.EDGES[-1], 201)
    if result.df == 1:  # the density is infinite at 0: start the curve after it
        grid = grid[1:]
    pdf = [gof.chisq_density(x, result.df) for x in grid]
    distances = {}
    for n, vec in result.statistics.items():
        empirical, distances[n] = numerics.histogram_vs_reference(
            vec, gof.EDGES, ref_avg)
        tables[f"gof_overlay_n{n}.csv"] = {
            "bin_lo": gof.EDGES[:-1],
            "bin_hi": gof.EDGES[1:],
            "empirical_density": empirical,
            "chisq_density_bin_avg": ref_avg,
        }
        if config.emit_figures:
            figs[f"gof_overlay_n{n}.svg"] = figures.histogram_chart(
                list(gof.EDGES),
                list(empirical),
                overlay=(f"chi-square df={result.df}", list(grid), pdf),
                title=f"Null distribution of the Pearson statistic (n={n})",
                xlabel="statistic",
            )

    summary = {
        "bins": plan.bins,
        "df": result.df,
        "n_reps": plan.n_reps,
        "mean_statistic": result.means,
        "shape_distance": distances,
    }
    return tables, figs, summary, []


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

    names = list(_RUNNERS) if config.subcommand == "all" else [config.subcommand]
    docs = []
    for name in names:
        tables, figs, summary, warnings = _RUNNERS[name](config)
        for table, columns in tables.items():
            write_table(out / table, columns)
        for fig, svg in figs.items():
            (out / fig).write_text(svg)
        doc = {
            "tool": "statlab",
            "version": __version__,
            "environment": dict(ENVIRONMENT),
            "subcommand": name,
            "root_seed": config.root_seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "tables": list(tables),
            "figures": list(figs),
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
