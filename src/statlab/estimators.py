"""Scale estimators for normal data and a replicated efficiency study.

Compares the IQR-based estimator sigma_tilde = IQR / 1.3489795 against the
usual sample standard deviation across repeated samples at several n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import math
import sys

import numpy as np

from . import figures, simkit
from .numerics import quantile_type7, summarize

# 2 * z_{0.75}: the population IQR of a normal is this many standard deviations
IQR_TO_SIGMA = 1.3489795
# The smallest sigma, the smallest normal float (2**-1022): below it the box
# chart's y-span, which reaches sigma, underflows when split into ticks.
MIN_TRUE_SD = sys.float_info.min
# The largest sigma: squared deviations summed over a sample stay finite.
MAX_TRUE_SD = 1e100
# The mean of every simulated sample (the tables' last digits depend on it).
TRUE_MEAN = 42.0


@dataclass(frozen=True)
class EstimatorStudyPlan:
    sample_sizes: tuple[int, ...] = (100, 400)
    true_sd: float = math.pi
    n_reps: int = 1000

    def __post_init__(self):
        if any(not 4 <= n <= simkit.MAX_ROW_DRAWS for n in self.sample_sizes):
            raise ValueError(f"sample_sizes must each lie in [4, "
                             f"{simkit.MAX_ROW_DRAWS}], got {self.sample_sizes}")
        if not MIN_TRUE_SD <= self.true_sd <= MAX_TRUE_SD:
            raise ValueError(f"true_sd must lie in [2**-1022, {MAX_TRUE_SD:g}], "
                             f"got {self.true_sd}")
        simkit.check_replicates(self.n_reps, self.sample_sizes, least=2)

    def run(self, root_seed: int):
        """The study's tables, figures to draw, summary and no warnings."""
        dists = run_estimator_study(self, root_seed)
        keys, stats = list(dists), [summarize(v) for v in dists.values()]
        tables = {
            "estimator_distributions.csv": {
                "estimator": np.repeat([name for name, _ in dists], self.n_reps),
                "n": np.repeat([n for _, n in dists], self.n_reps),
                "replicate": np.tile(np.arange(self.n_reps), len(dists)),
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
            ylabel="estimate of sigma", reference=self.true_sd)}

        summary = {
            "iqr_of_distribution": {
                f"{name}_n{n}": s.iqr for (name, n), s in zip(keys, stats)
            },
        }
        return tables, figs, summary, []


def sigma_hat_iqr(sample: Sequence[float]) -> float | np.ndarray:
    """IQR-based scale estimate: type-7 interquartile range over 1.3489795.

    Observations run along the last axis: a ``(reps, n)`` array gives one
    estimate per row.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 4:
        raise ValueError("need at least 4 observations")
    q1, q3 = quantile_type7(x, (0.25, 0.75))
    return (q3 - q1) / IQR_TO_SIGMA


def sigma_hat_s(sample: Sequence[float]) -> float | np.ndarray:
    """Sample standard deviation with divisor n-1.

    Observations run along the last axis: a ``(reps, n)`` array gives one
    estimate per row.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("need at least 2 observations")
    s = np.std(x, ddof=1, axis=-1)
    return float(s) if x.ndim == 1 else s


def run_estimator_study(
    plan: EstimatorStudyPlan, root_seed: int
) -> dict[tuple[str, int], np.ndarray]:
    """Sampling distributions of both estimators at each planned sample size,
    keyed by (estimator name, sample size).

    ``result[(name, n)][i]`` is, bit for bit, ``sigma_hat_<name>(
    normals_from_uniforms(uniforms(stream(root_seed, f"estimator-n{n}", i)
    .random_raw(n)), TRUE_MEAN, plan.true_sd))``: replicate ``i``'s
    normals at sample size ``n``.  Replicates are computed in blocks
    (``simkit.run_replicates_batched``); the output does not depend on the
    block size.
    """

    def block_estimates(block: np.ndarray) -> np.ndarray:
        draws = simkit.normals_from_uniforms(
            simkit.uniforms(block), TRUE_MEAN, plan.true_sd
        )
        return np.column_stack((sigma_hat_iqr(draws), sigma_hat_s(draws)))

    distributions: dict[tuple[str, int], np.ndarray] = {}
    for n in plan.sample_sizes:
        study = simkit.run_replicates_batched(
            plan.n_reps, f"estimator-n{n}", root_seed, n, block_estimates
        )
        # contiguous columns: numpy sums a strided vector of over 8192
        # values in another order, so summarize could round differently
        distributions[("iqr", n)] = study[:, 0].copy()
        distributions[("s", n)] = study[:, 1].copy()
    return distributions
