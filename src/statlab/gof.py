"""Null-distribution study of the Pearson chi-square statistic for uniform data.

Simulates the statistic for small samples (expected cell counts of 2 and 8)
and quantifies how far its distribution sits from the chi-square reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import simkit
from .numerics import (bin_integrals, density_vs_reference, histogram_counts,
                       histogram_overlay)


@dataclass(frozen=True)
class GofPlan:
    bins: int = 8
    sample_sizes: tuple[int, ...] = (16, 64)
    n_reps: int = 10_000

    def __post_init__(self):
        if not 2 <= self.bins <= simkit.MAX_ROW_DRAWS:
            raise ValueError(f"bins must lie in [2, {simkit.MAX_ROW_DRAWS}], got "
                             f"{self.bins}")
        for n in self.sample_sizes:
            if n < self.bins or n % self.bins != 0 or n > simkit.MAX_ROW_DRAWS:
                raise ValueError(f"sample_sizes must be multiples of bins = "
                                 f"{self.bins} and at most "
                                 f"{simkit.MAX_ROW_DRAWS}, got {n}")
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise ValueError(f"sample_sizes must be distinct, got "
                             f"{self.sample_sizes}")
        if not 1 <= self.n_reps <= simkit.MAX_REPS:
            raise ValueError(f"n_reps must lie in [1, {simkit.MAX_REPS}], got "
                             f"{self.n_reps}")

    def run(self, root_seed: int):
        """The study's tables, figures to draw, summary and warnings."""
        statistics = simulate_uniform_gof(self, root_seed)
        df = self.bins - 1
        tables = {
            "gof_statistics.csv": {
                "n": np.repeat(list(statistics), self.n_reps),
                "replicate": np.tile(np.arange(self.n_reps), len(statistics)),
                "statistic": np.concatenate(list(statistics.values())),
            },
        }
        figs, warnings = {}, []
        if self.bins in self.sample_sizes:
            warnings.append(
                f"--sizes {self.bins} equals --bins {self.bins}: one expected "
                f"count per cell, too few for the chi-square reference, so its "
                f"shape_distance is large; use sizes of at least twice --bins")
        if self.n_reps == 1:
            warnings.append(
                "--reps 1 gives one statistic per size: its histogram cannot "
                "show the chi-square shape, so shape_distance reads large; use "
                "--reps 2 or more")
        # one reference for every size; the distances are shape_distance's
        ref_avg = binned_chisq_density(df, EDGES)
        mass = ref_avg.sum() * (EDGES[1] - EDGES[0])
        if mass < 0.95:
            warnings.append(
                f"the window [{EDGES[0]:g}, {EDGES[-1]:g}] holds only "
                f"{mass:.1%} of the chi-square df={df} mass and "
                f"shape_distance leaves the rest out; use fewer --bins")
        grid = np.linspace(EDGES[0], EDGES[-1], 201)
        if df == 1:  # the density is infinite at 0: start the curve after it
            grid = grid[1:]
        curve = (f"chi-square df={df}", list(grid),
                 [chisq_density(x, df) for x in grid])
        distances = {}
        for n, vec in statistics.items():
            (tables[f"gof_overlay_n{n}.csv"], distances[n],
             figs[f"gof_overlay_n{n}.svg"]) = histogram_overlay(
                EDGES, histogram_counts(vec, EDGES), len(vec), ref_avg,
                "chisq_density_bin_avg", curve,
                f"Null distribution of the Pearson statistic (n={n})",
                "statistic")

        summary = {
            "df": df,
            "mean_statistic": {n: float(v.mean()) for n, v in statistics.items()},
            "shape_distance": distances,
        }
        return tables, figs, summary, warnings


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


def simulate_uniform_gof(plan: GofPlan, root_seed: int) -> dict[int, np.ndarray]:
    """Null distribution of the Pearson statistic for each planned sample size,
    keyed by sample size.

    Replicate ``i`` at sample size ``n`` bins the uniforms of the first ``n``
    words of its private substream, scaled to (0, bins), so
    ``result[n][i]`` equals, bit for bit, ``pearson_statistic(
    bin_uniform(bins * uniforms(stream(root_seed, f"gof-n{n}", i)
    .random_raw(n)), bins), expected)``.  Replicates are computed in
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

        statistics[n] = simkit.run_replicates_batched(
            plan.n_reps, f"gof-n{n}", root_seed, n, block_statistics)
    return statistics


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


# The window on which the statistics' histogram is set beside chi-square:
# [0, 20] in 40 bins of width 0.5.
EDGES = np.linspace(0.0, 20.0, 41)


def binned_chisq_density(df: int, edges: np.ndarray) -> np.ndarray:
    """Average chi-square density over each comparison bin.

    At df = 1 the density is infinite at 0, where quadrature would evaluate
    it, so the averages come from the distribution function erf(sqrt(x/2)).
    """
    if df == 1:
        mass = np.diff([math.erf(math.sqrt(x / 2.0)) for x in edges])
    else:
        mass = bin_integrals(lambda x: chisq_density(x, df), edges)
    return mass / np.diff(edges)


def shape_distance(statistics: Sequence[float], df: int) -> float:
    """Sup over the bins of ``EDGES`` of |empirical density - bin-averaged
    chi-square|; statistics beyond the window count in the denominator only
    (``numerics.density_vs_reference``)."""
    reference = binned_chisq_density(df, EDGES)
    counts = histogram_counts(statistics, EDGES)
    return density_vs_reference(counts, len(statistics), EDGES, reference)[1]
