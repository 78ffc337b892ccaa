"""Scale estimators for normal data and a replicated efficiency study.

Compares the IQR-based estimator sigma_tilde = IQR / 1.3489795 against the
usual sample standard deviation across repeated samples at several n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import math

import numpy as np

from . import simkit
from .numerics import SummaryStats, quantile_type7, summarize

# 2 * z_{0.75}: the population IQR of a normal is this many standard deviations
IQR_TO_SIGMA = 1.3489795


@dataclass(frozen=True)
class EstimatorStudyPlan:
    sample_sizes: tuple[int, ...] = (100, 400)
    true_mean: float = 42.0
    true_sd: float = math.pi
    n_reps: int = 1000

    def __post_init__(self):
        if any(n < 4 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 4")
        if not (math.isfinite(self.true_sd) and self.true_sd > 0):
            raise ValueError("true_sd must be positive and finite")
        if self.n_reps < 2:
            raise ValueError("n_reps must be >= 2")


@dataclass(frozen=True)
class EstimatorStudyResult:
    plan: EstimatorStudyPlan
    root_seed: int
    # keyed by (estimator name, sample size)
    distributions: Mapping[tuple[str, int], np.ndarray]
    summaries: Mapping[tuple[str, int], SummaryStats] = field(default_factory=dict)


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
) -> EstimatorStudyResult:
    """Sampling distributions of both estimators at each planned sample size.

    Replicate ``i`` at sample size ``n`` estimates from the first ``n`` draws
    of its private substream, so ``distributions[(name, n)][i]`` equals, bit
    for bit, ``sigma_hat_<name>(make_stream(root_seed, f"estimator-n{n}", i)
    .normals(n, plan.true_mean, plan.true_sd))``.  Replicates are computed in
    blocks (``simkit.run_replicates_batched``); the output does not depend on
    the block size.
    """

    def block_estimates(block: np.ndarray) -> dict[str, np.ndarray]:
        draws = simkit.normals_from_uniforms(
            simkit.uniforms(block), plan.true_mean, plan.true_sd
        )
        return {"iqr": sigma_hat_iqr(draws), "s": sigma_hat_s(draws)}

    distributions: dict[tuple[str, int], np.ndarray] = {}
    for n in plan.sample_sizes:
        study = simkit.run_replicates_batched(
            plan.n_reps, f"estimator-n{n}", root_seed, n, block_estimates
        )
        distributions[("iqr", n)] = study["iqr"]
        distributions[("s", n)] = study["s"]
    summaries = {key: summarize(vec) for key, vec in distributions.items()}
    return EstimatorStudyResult(
        plan=plan,
        root_seed=int(root_seed),
        distributions=distributions,
        summaries=summaries,
    )
