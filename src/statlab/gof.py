"""Null-distribution study of the Pearson chi-square statistic for uniform data.

Simulates the statistic for small samples (expected cell counts of 2 and 8)
and quantifies how far its distribution sits from the chi-square reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import simkit
from .numerics import integrate_interval


@dataclass(frozen=True)
class GofPlan:
    bins: int = 8
    sample_sizes: tuple[int, ...] = (16, 64)
    n_reps: int = 10_000

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("need at least 2 bins")
        for n in self.sample_sizes:
            if n < self.bins or n % self.bins != 0:
                raise ValueError(
                    f"sample size {n} must be a multiple of bins={self.bins}"
                )
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")


@dataclass(frozen=True)
class GofResult:
    plan: GofPlan
    root_seed: int
    df: int
    statistics: Mapping[int, np.ndarray]  # keyed by sample size
    means: Mapping[int, float] = field(default_factory=dict)


def pearson_statistic(
    observed: Sequence[float], expected: Sequence[float]
) -> float | np.ndarray:
    """Sum of (O - E)^2 / E over cells.

    Cells run along the last axis of ``observed``: a ``(reps, cells)`` array
    gives one statistic per row, each checked against ``expected``.
    """
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if exp.ndim != 1 or obs.shape[-1:] != exp.shape:
        raise ValueError("observed and expected must have equal length")
    if np.any(exp <= 0):
        raise ValueError("expected counts must all be positive")
    if np.any(np.abs(obs.sum(axis=-1) - exp.sum()) > 1e-9):
        raise ValueError("observed and expected totals must match")
    stat = np.sum((obs - exp) ** 2 / exp, axis=-1)
    return float(stat) if obs.ndim == 1 else stat


def bin_uniform(draws: Sequence[float], bins: int) -> np.ndarray:
    """Counts of draws on (0, bins) in unit-width half-open bins (j-1, j].

    Bins along the last axis: a ``(reps, n)`` array gives ``(reps, bins)``.
    """
    u = np.asarray(draws, dtype=float)
    # ceil maps (j-1, j] to bin j; boundary hits go to the lower bin
    idx = np.clip(np.ceil(u).astype(int), 1, bins) - 1
    rows = math.prod(idx.shape[:-1])
    # offset each row into its own run of bins so one bincount does them all
    offsets = bins * np.arange(rows).reshape(*idx.shape[:-1], 1)
    counts = np.bincount((idx + offsets).ravel(), minlength=rows * bins)
    return counts.reshape(*idx.shape[:-1], bins).astype(np.int64)


def simulate_uniform_gof(plan: GofPlan, root_seed: int) -> GofResult:
    """Null distribution of the Pearson statistic for each planned sample size.

    Replicate ``i`` at sample size ``n`` bins the first ``n`` draws of its
    private substream ``(root_seed, f"gof-n{n}", i)``, scaled to (0, bins), so
    ``statistics[n][i]`` equals, bit for bit,
    ``pearson_statistic(bin_uniform(make_stream(root_seed, f"gof-n{n}", i)
    .uniforms(n, 0, bins), bins), expected)``.  Replicates are computed in
    blocks (``simkit.run_replicates_batched``); the output does not depend on
    the block size.
    """
    statistics: dict[int, np.ndarray] = {}
    for n in plan.sample_sizes:
        expected = np.full(plan.bins, n / plan.bins)

        def block_statistics(block: np.ndarray, expected=expected) -> np.ndarray:
            return pearson_statistic(
                bin_uniform(plan.bins * simkit.uniforms(block), plan.bins),
                expected,
            )

        study = simkit.run_replicates_batched(
            plan.n_reps, f"gof-n{n}", root_seed, n, block_statistics
        )
        statistics[n] = study["value"]
    means = {n: float(v.mean()) for n, v in statistics.items()}
    return GofResult(
        plan=plan,
        root_seed=int(root_seed),
        df=plan.bins - 1,
        statistics=statistics,
        means=means,
    )


def chisq_density(x: float, df: int) -> float:
    """Chi-square density x^(df/2-1) e^(-x/2) / (2^(df/2) Gamma(df/2))."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        if df == 2:
            return 0.5
        return math.inf if df == 1 else 0.0
    half = df / 2.0
    return math.exp((half - 1.0) * math.log(x) - x / 2.0
                    - half * math.log(2.0) - math.lgamma(half))


def binned_chisq_density(df: int, edges: np.ndarray) -> np.ndarray:
    """Average chi-square density over each comparison bin.

    At df = 1 the density is infinite at 0, where quadrature would evaluate
    it, so the averages come from the distribution function erf(sqrt(x/2)).
    """
    if df == 1:
        cdf = [math.erf(math.sqrt(x / 2.0)) for x in edges]
        return np.diff(cdf) / np.diff(edges)
    avgs = np.empty(len(edges) - 1)
    for j in range(len(edges) - 1):
        a, b = edges[j], edges[j + 1]
        res = integrate_interval(lambda x: chisq_density(x, df), a, b, tol=1e-9)
        avgs[j] = res.value / (b - a)
    return avgs


def shape_distance(
    statistics: Sequence[float],
    df: int,
    comparison_bins: int = 40,
    hi: float = 20.0,
) -> float:
    """Sup over comparison bins of |empirical density - bin-averaged chi-square|.

    Comparison window is [0, hi] split into equal bins; statistics beyond hi
    count in the denominator but not in any bin.
    """
    stats = np.asarray(statistics, dtype=float)
    if stats.size == 0:
        raise ValueError("statistics must be non-empty")
    counts, edges = np.histogram(stats, bins=comparison_bins, range=(0.0, hi))
    width = hi / comparison_bins
    empirical = counts / (stats.size * width)
    return float(np.max(np.abs(empirical - binned_chisq_density(df, edges))))
