"""Report emission: CSV tables, JSON summaries, and SVG figures per subcommand.

Every number written to a table comes straight from an operation in the
library modules; the reporter only formats.  Rerunning with the same
configuration produces byte-identical tables.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, estimators, figures, gof, mh, pooling


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
# Samples per chunk of the MH variance, so no full-length temporary is made.
_CHUNK_SAMPLES = 1 << 16


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


def run_pooling(config: RunConfig, out: Path):
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
    tables, figs = [], []
    t1 = out / "pooling_candidates.csv"
    write_table(t1, {
        "k": candidates,
        "n_pools": [N // k for k in candidates],
        "expected_tests_analytic": [c.expected_tests_analytic for c in costs],
        "simulated_mean": [c.simulated_mean for c in costs],
        "simulated_sd": [c.simulated_sd for c in costs],
        "savings_ratio": [c.savings_ratio for c in costs],
    })
    tables.append(t1.name)

    ks, curve = pooling.cost_curve(N, p, *plan.k_range)
    t2 = out / "pooling_cost_curve.csv"
    write_table(t2, {"k": ks, "expected_tests": curve})
    tables.append(t2.name)

    if config.emit_figures:
        fig = out / "pooling_cost_curve.svg"
        fig.write_text(
            figures.line_chart(
                [("expected tests", list(ks), list(curve))],
                title=f"Expected tests vs pool size (N={N}, p={p})",
                xlabel="pool size k",
                ylabel="expected number of tests",
            )
        )
        figs.append(fig.name)

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


def _variance(x: np.ndarray) -> float:
    """Population variance by two passes over ``_CHUNK_SAMPLES`` at a time.

    ``x.var()`` holds a full-length temporary; this holds one chunk's.  The
    value can differ from it in the last bits, as the sums group differently.
    """
    mean = x.mean()
    squares = []
    for i in range(0, len(x), _CHUNK_SAMPLES):
        d = x[i:i + _CHUNK_SAMPLES] - mean
        squares.append(float(np.square(d, out=d).sum()))
    return math.fsum(squares) / len(x)


def run_mh(config: RunConfig, out: Path):
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
    c = density.normalize()
    result = mh.run_chain(mh_config, config.root_seed)
    hist = mh.density_histogram(result.samples, density)

    tables, figs = [], []
    t1 = out / "mh_histogram.csv"
    write_table(t1, {
        "bin_lo": hist.edges[:-1],
        "bin_hi": hist.edges[1:],
        "empirical_density": hist.empirical,
        "true_density_bin_avg": hist.true_avg,
    })
    tables.append(t1.name)

    grid = np.linspace(-3.0, 3.0, 201)
    t2 = out / "mh_true_density.csv"
    pdf = [density.pdf(y) for y in grid]
    write_table(t2, {"y": grid, "pdf": pdf})
    tables.append(t2.name)

    if config.emit_figures:
        fig = out / "mh_density.svg"
        fig.write_text(
            figures.histogram_chart(
                list(hist.edges),
                list(hist.empirical),
                overlay=("true density", list(grid), pdf),
                title="Metropolis-Hastings samples vs true density",
                xlabel="y",
            )
        )
        figs.append(fig.name)

    summary = {
        "normalizing_constant": c,
        "proposal_sd": mh_config.proposal_sd,
        "burn_in": mh_config.burn_in,
        "n_samples": mh_config.n_samples,
        "acceptance_rate": result.acceptance_rate,
        "sample_mean": float(result.samples.mean()),
        "sample_variance": _variance(result.samples),
        "target_variance_quadrature": density.second_moment(),
        "density_distance": hist.distance,
    }
    return tables, figs, summary, warnings


def run_estimator(config: RunConfig, out: Path):
    plan = make_plan("estimator", config.options, config.n_reps)
    result = estimators.run_estimator_study(plan, config.root_seed)

    tables, figs = [], []
    t1 = out / "estimator_distributions.csv"
    dists = result.distributions
    write_table(t1, {
        "estimator": np.repeat([name for name, _ in dists], plan.n_reps),
        "n": np.repeat([n for _, n in dists], plan.n_reps),
        "replicate": np.tile(np.arange(plan.n_reps), len(dists)),
        "estimate": np.concatenate(list(dists.values())),
    })
    tables.append(t1.name)

    t2 = out / "estimator_summary.csv"
    keys, stats = list(result.summaries), list(result.summaries.values())
    write_table(t2, {
        "estimator": [name for name, _ in keys],
        "n": [n for _, n in keys],
        "mean": [s.mean for s in stats],
        "sd": [s.sd for s in stats],
        "q1": [s.q1 for s in stats],
        "median": [s.median for s in stats],
        "q3": [s.q3 for s in stats],
        "iqr": [s.iqr for s in stats],
    })
    tables.append(t2.name)

    if config.emit_figures:
        groups = [
            (f"{name} (n={n})",
             {"lo": float(vec.min()), "q1": s.q1, "median": s.median,
              "q3": s.q3, "hi": float(vec.max())})
            for ((name, n), vec), s in zip(dists.items(), stats)
        ]
        fig = out / "estimator_box.svg"
        fig.write_text(
            figures.box_chart(
                groups,
                title="Sampling distributions of the scale estimators",
                ylabel="estimate of sigma",
                reference=plan.true_sd,
            )
        )
        figs.append(fig.name)

    summary = {
        "true_sd": plan.true_sd,
        "n_reps": plan.n_reps,
        "iqr_of_distribution": {
            f"{name}_n{n}": s.iqr for (name, n), s in result.summaries.items()
        },
    }
    return tables, figs, summary, []


def run_gof(config: RunConfig, out: Path):
    plan = make_plan("gof", config.options, config.n_reps)
    result = gof.simulate_uniform_gof(plan, config.root_seed)

    tables, figs = [], []
    t1 = out / "gof_statistics.csv"
    stats = result.statistics
    write_table(t1, {
        "n": np.repeat(list(stats), plan.n_reps),
        "replicate": np.tile(np.arange(plan.n_reps), len(stats)),
        "statistic": np.concatenate(list(stats.values())),
    })
    tables.append(t1.name)

    edges = np.linspace(0.0, 20.0, 41)
    ref_avg = gof.binned_chisq_density(result.df, edges)
    distances = {}
    for n, vec in result.statistics.items():
        counts, _ = np.histogram(vec, bins=40, range=(0.0, 20.0))
        empirical = counts / (vec.size * 0.5)
        t = out / f"gof_overlay_n{n}.csv"
        write_table(t, {
            "bin_lo": edges[:-1],
            "bin_hi": edges[1:],
            "empirical_density": empirical,
            "chisq_density_bin_avg": ref_avg,
        })
        tables.append(t.name)
        # gof.shape_distance(vec, df) bit for bit: the same edges and empirical
        # densities, with the reference computed once for every size
        distances[n] = float(np.max(np.abs(empirical - ref_avg)))
        if config.emit_figures:
            fig = out / f"gof_overlay_n{n}.svg"
            grid = np.linspace(0.0, 20.0, 201)
            fig.write_text(
                figures.histogram_chart(
                    list(edges),
                    list(empirical),
                    overlay=(
                        f"chi-square df={result.df}",
                        list(grid),
                        [gof.chisq_density(x, result.df) for x in grid],
                    ),
                    title=f"Null distribution of the Pearson statistic (n={n})",
                    xlabel="statistic",
                )
            )
            figs.append(fig.name)

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
        tables, figs, summary, warnings = _RUNNERS[name](config, out)
        doc = {
            "tool": "statlab",
            "version": __version__,
            "subcommand": name,
            "root_seed": config.root_seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "tables": tables,
            "figures": figs,
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
