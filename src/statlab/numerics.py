"""Shared numerical kernels: quadrature, 1-D minimization, root finding,
quantiles, and a sample's histogram beside a reference density."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import figures

DEFAULT_QUAD_TOL = 1e-10  # relative
DEFAULT_OPT_TOL = 1e-6
DEFAULT_EVAL_BUDGET = 10**6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class QuadratureDivergenceError(RuntimeError):
    """Raised when the evaluation budget is exhausted before convergence.

    It carries no estimate: the one at hand when the budget runs out covers
    only the sub-interval being refined, not the integral.
    """


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error: float
    evaluations: int


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    q1: float
    median: float
    q3: float
    iqr: float


def integrate_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_QUAD_TOL,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> QuadratureResult:
    """Adaptive Simpson quadrature of f over the finite interval [a, b].

    ``tol`` is interpreted relative to a coarse first estimate of the
    integral (with an absolute floor, so integrals near zero still converge).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")

    def refine(a, b, fa, fm, fb, whole, tol, depth):
        """Simpson's rule on [a, b] from its coarse estimate ``whole``, halved
        until the halves' error estimate meets ``tol``: (value, error)."""
        nonlocal count
        m = 0.5 * (a + b)
        flm = f(0.5 * (a + m))
        frm = f(0.5 * (m + b))
        count += 2
        if count > budget:
            raise QuadratureDivergenceError(
                "evaluation budget of %d exhausted" % budget)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if depth <= 0 or abs(err) <= tol:
            return left + right + err, abs(err)
        lv, le = refine(a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        rv, re = refine(m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
        return lv + rv, le + re

    # seed the refinement from a fixed panel grid so a peak narrower than
    # the whole interval cannot be missed by the first coarse estimate
    panels = 16
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    f_edges = [f(x) for x in edges]
    f_mids = [f(x) for x in mids]
    count = 2 * panels + 1
    simpsons = [(edges[i + 1] - edges[i]) / 6.0
                * (f_edges[i] + 4.0 * f_mids[i] + f_edges[i + 1])
                for i in range(panels)]
    abs_tol = tol * max(abs(sum(simpsons)), 1e-30)
    value = err = 0.0
    for i in range(panels):
        v, e = refine(edges[i], edges[i + 1], f_edges[i], f_mids[i],
                      f_edges[i + 1], simpsons[i], abs_tol / panels, depth=55)
        value += v
        err += e
    return QuadratureResult(value=value, abs_error=err, evaluations=count)


def integrate_real_line(
    g: Callable[[float], float],
    tol: float = DEFAULT_QUAD_TOL,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> QuadratureResult:
    """Integrate an even g over (-inf, inf) as the half-line integral of 2g.

    The half line [0, inf) is mapped onto [0, 1) by y = t/(1-t), with
    dy = dt/(1-t)^2, and ``integrate_interval``'s result is returned.
    """
    def transformed(t):
        if t >= 1.0:
            return 0.0
        onemt = 1.0 - t
        return 2.0 * g(t / onemt) / (onemt * onemt)

    return integrate_interval(transformed, 0.0, 1.0, tol=tol, budget=budget)


def minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_OPT_TOL,
) -> float:
    """Golden-section minimization of a unimodal f on [lo, hi].

    Unimodality is the caller's responsibility; for non-unimodal f the
    result is some local minimizer.  Returns the argmin.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fcv, fdv = f(c), f(d)
    while b - a > tol:
        if fcv < fdv:
            b, d, fdv = d, c, fcv
            c = b - _INVPHI * (b - a)
            fcv = f(c)
        else:
            a, c, fcv = c, d, fdv
            d = a + _INVPHI * (b - a)
            fdv = f(d)
    return 0.5 * (a + b)


def solve_root(
    h: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_OPT_TOL,
) -> float:
    """Bisection root of a continuous h with a sign change on [lo, hi]."""
    if lo >= hi:
        raise ValueError("need lo < hi")
    flo, fhi = h(lo), h(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("h(lo) and h(hi) must bracket a sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = h(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


# Samples binned at once: a slice's bin indices (64 KiB) bound what a long
# sample adds beyond itself.
_HISTOGRAM_SLICE = 1 << 13


def histogram_counts(samples: Sequence[float], edges: np.ndarray) -> np.ndarray:
    """int64 counts of the samples on the bins of increasing ``edges``.

    Bin i holds ``edges[i] <= x < edges[i+1]`` and the last bin also holds
    ``x == edges[-1]``; samples outside [edges[0], edges[-1]], NaN among
    them, are not counted.  Each slice of ``_HISTOGRAM_SLICE`` samples is
    binned by ``np.searchsorted`` on the edges and counted by
    ``np.bincount``, whose indices 0 and ``bins + 1`` catch the samples
    below and above the window, so a long sample adds no temporaries of its
    own length.
    """
    x = np.asarray(samples, dtype=float)
    bins = len(edges) - 1
    counts = np.zeros(bins + 2, dtype=np.int64)
    for start in range(0, x.size, _HISTOGRAM_SLICE):
        part = x[start:start + _HISTOGRAM_SLICE]
        counts += np.bincount(np.searchsorted(edges, part, "right"),
                              minlength=bins + 2)
        counts[bins] += np.count_nonzero(part == edges[-1])
    return counts[1:bins + 1]


def density_vs_reference(counts: np.ndarray, n: int, edges: np.ndarray,
                         reference: np.ndarray) -> tuple[np.ndarray, float]:
    """Empirical density of ``n`` samples with ``counts`` on equal bins, and
    its sup distance from ``reference``, the reference density's average
    over each bin.  Each count is divided by ``n`` times the bin width, so
    samples outside [edges[0], edges[-1]] count in the denominator only.
    """
    if n < 1:
        raise ValueError("samples must be non-empty")
    empirical = counts / (n * (edges[1] - edges[0]))
    return empirical, float(np.max(np.abs(empirical - reference)))


def histogram_overlay(edges, counts, n, reference, column, curve, title, xlabel):
    """A histogram of ``n`` samples with ``counts`` on ``edges`` beside a
    reference density whose bin averages are ``reference``: the overlay table
    (the averages under ``column``), the sup distance between the two, and the
    chart, to draw, with ``curve`` drawn over the bars."""
    empirical, distance = density_vs_reference(counts, n, edges, reference)
    table = {"bin_lo": edges[:-1], "bin_hi": edges[1:],
             "empirical_density": empirical, column: reference}
    return table, distance, partial(
        figures.histogram_chart, list(edges), list(empirical), overlay=curve,
        title=title, xlabel=xlabel)


def bin_integrals(f: Callable[[float], float], edges: np.ndarray) -> np.ndarray:
    """Integral of f over each bin of ``edges``, each by ``integrate_interval``
    at relative tolerance 1e-9."""
    return np.array([integrate_interval(f, a, b, tol=1e-9).value
                     for a, b in zip(edges[:-1], edges[1:])])


def quantile_type7(sample: Sequence[float], probs: tuple[float, ...]) -> tuple:
    """Order-statistic quantiles with linear interpolation at h = (n-1)p + 1,
    one per probability in ``probs``, from one sort of the sample.

    Observations run along the last axis: a ``(reps, n)`` array gives one
    quantile per row, each equal to the 1-D call on that row bit for bit.
    """
    x = np.sort(np.asarray(sample, dtype=float), axis=-1)
    n = x.shape[-1]
    if n == 0:
        raise ValueError("sample must be non-empty")
    qs = []
    for prob in probs:
        if not 0.0 <= prob <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if n == 1:
            q = x[..., 0]
        else:
            h = (n - 1) * prob
            i = min(int(math.floor(h)), n - 2)
            q = x[..., i] + (h - i) * (x[..., i + 1] - x[..., i])
        qs.append(float(q) if x.ndim == 1 else q)
    return tuple(qs)


def summarize(sample: Sequence[float]) -> SummaryStats:
    """Mean, sd (divisor n-1), and type-7 quartiles of a sample."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("sample must be non-empty")
    sd = 0.0 if x.size == 1 else float(np.std(x, ddof=1))
    q1, median, q3 = quantile_type7(x, (0.25, 0.5, 0.75))
    return SummaryStats(
        mean=float(np.mean(x)),
        sd=sd,
        q1=q1,
        median=median,
        q3=q3,
        iqr=q3 - q1,
    )
