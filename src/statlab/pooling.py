"""Group (pooled) blood testing: expected test counts and the optimal pool size.

Protocol: pools of k samples are tested simultaneously; a positive pool
triggers k individual retests, so that pool costs k+1 tests in total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simkit
from .numerics import minimize_scalar, solve_root, summarize


@dataclass(frozen=True)
class PoolingDesign:
    N: int  # total people tested
    k: int  # people per pool
    n: int  # number of pools
    p: float  # prevalence

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("pool size k must be >= 2")
        if self.N != self.n * self.k:
            raise ValueError("need N = n * k exactly")
        # closed interval: p = 0 and p = 1 are useful degenerate checks
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("prevalence must lie in [0, 1]")


@dataclass(frozen=True)
class PoolingCost:
    expected_tests_analytic: float
    simulated_mean: float
    simulated_sd: float
    n_reps: int
    savings_ratio: float


@dataclass(frozen=True)
class ContinuousOptimum:
    k: float | None  # None when pooling cannot beat individual testing
    expected_tests_per_person: float
    at_boundary: bool


# Dorfman (1943) on real k: some pool size costs under one test per person,
# min_k 1/k + 1 - (1-p)^k < 1, exactly when p is below this prevalence.
POOLING_HELPS_BELOW = 1.0 - math.exp(-1.0 / math.e)
# On whole k the same inequality holds exactly when p < 1 - k^(-1/k), which is
# loosest at k = 3, so some integer pool size helps exactly below this.
POOLING_HELPS_INTEGER_BELOW = 1.0 - 3.0 ** (-1.0 / 3.0)


def expected_tests(k: float, n: float, p: float) -> float:
    """Expected total tests for n pools of size k at prevalence p.

    Each pool costs 1 test plus k retests with probability 1 - (1-p)^k,
    hence n + k*n*(1 - (1-p)^k).  k is allowed to be real so the expression
    can be optimized continuously.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("prevalence must lie in [0, 1]")
    return n + k * n * (1.0 - (1.0 - p) ** k)


def expected_tests_per_person(k: float, p: float) -> float:
    """Expected tests per person, 1/k + 1 - (1-p)^k; independent of n."""
    return 1.0 / k + 1.0 - (1.0 - p) ** k


def pooling_helps(p: float) -> bool:
    """Whether some real pool size beats individual testing at prevalence p."""
    return p < POOLING_HELPS_BELOW


def pooling_helps_integer(p: float) -> bool:
    """Whether some integer pool size beats individual testing at prevalence p."""
    return p < POOLING_HELPS_INTEGER_BELOW


def optimal_pool_size_continuous(p: float, tol: float = 1e-6) -> ContinuousOptimum:
    """Continuous pool size minimizing expected tests per person.

    The population size cancels, so the objective is c(k) = 1/k + 1 - (1-p)^k,
    which is unimodal on the search bracket [1.5, 1/p] while pooling helps.
    Where it cannot, there is no pool size: ``k`` is None, the cost is one
    test per person and ``at_boundary`` is set, as it is if the search ends on
    the bracket's edge.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("prevalence must lie strictly in (0, 1)")
    if not pooling_helps(p):
        return ContinuousOptimum(k=None, expected_tests_per_person=1.0,
                                 at_boundary=True)
    lo, hi = 1.5, 1.0 / p
    k, cost = minimize_scalar(lambda k: expected_tests_per_person(k, p), lo, hi, tol=tol)
    edge = min(k - lo, hi - k) <= tol
    return ContinuousOptimum(k=k, expected_tests_per_person=cost, at_boundary=edge)


def optimality_residual(k: float, p: float) -> float:
    """d/dk of tests per person, negated on its second term: 1/k^2 + ln(1-p)(1-p)^k.

    Zero exactly at the continuous optimum; used as an independent bisection
    cross-check of the golden-section answer.
    """
    return 1.0 / (k * k) + np.log(1.0 - p) * (1.0 - p) ** k


def optimal_pool_size_root(p: float, tol: float = 1e-6) -> float | None:
    """Continuous optimum found by bisection on the optimality condition.

    The residual changes sign once on [1.5, 1/p], at the optimum, so
    bisection runs on that whole bracket.  None where pooling cannot help.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("prevalence must lie strictly in (0, 1)")
    if not pooling_helps(p):
        return None
    return solve_root(lambda k: optimality_residual(k, p), 1.5, 1.0 / p, tol=tol)


def optimal_pool_size_integer(
    N: int, p: float, candidates: list[int]
) -> tuple[int, float]:
    """Best integer pool size among divisor candidates of N; ties go to smaller k."""
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    for k in candidates:
        if k < 2 or N % k != 0:
            raise ValueError(f"candidate {k} must be >= 2 and divide N={N}")
    best_k, best_cost = None, None
    for k in sorted(candidates):
        cost = expected_tests(k, N // k, p)
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
    return best_k, best_cost


def savings_ratio(k: float, p: float) -> float:
    """Expected tests under individual testing over pooled testing, N cancelling."""
    return k / (expected_tests(k, 1.0, p))


def simulate_pooling(
    design: PoolingDesign,
    n_reps: int,
    root_seed: int,
    experiment_id: str = "pooling",
) -> PoolingCost:
    """Monte Carlo estimate of the total test count for a pooling design.

    Per replicate: N Bernoulli(p) disease statuses, partitioned into n pools
    of k; total tests = n + k * (number of positive pools).  Replicate ``i``
    draws its statuses, as ``bernoullis`` would, from its private substream
    ``(root_seed, experiment_id, i)`` on ``simkit.run_replicates_batched``,
    compared with p on the raw words (``simkit.uniforms_below``).
    """
    k, n, p = design.k, design.n, design.p

    def block_totals(block: np.ndarray) -> np.ndarray:
        totals = np.empty(len(block))
        for r, row in enumerate(simkit.uniforms_below(block, p)):
            # person j sits in pool j // k; the sorted pool indices of the
            # positives change value once per further positive pool
            pools = row.nonzero()[0] // k
            further = np.count_nonzero(pools[1:] != pools[:-1])
            totals[r] = n + k * (further + 1 if pools.size else 0)
        return totals

    study = simkit.run_replicates_batched(
        n_reps, experiment_id, root_seed, design.N, block_totals
    )
    stats = summarize(study["value"])
    analytic = expected_tests(k, n, p)
    return PoolingCost(
        expected_tests_analytic=analytic,
        simulated_mean=stats.mean,
        simulated_sd=stats.sd,
        n_reps=n_reps,
        savings_ratio=design.N / analytic,
    )


def cost_curve(N: int, p: float, k_lo: float, k_hi: float, points: int = 200):
    """Tabulate expected tests over a grid of pool sizes (k, E[tests])."""
    if not 2 <= k_lo < k_hi <= N:
        raise ValueError("need 2 <= k_lo < k_hi <= N")
    ks = np.linspace(k_lo, k_hi, points)
    costs = np.array([expected_tests(k, N / k, p) for k in ks])
    return ks, costs
