"""Group (pooled) blood testing: expected test counts and the optimal pool size.

Protocol: pools of k samples are tested simultaneously; a positive pool
triggers k individual retests, so that pool costs k+1 tests in total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import figures, simkit
from .numerics import SummaryStats, minimize_scalar, solve_root, summarize


# The smallest prevalence: a 53-bit uniform's resolution, below which
# uniforms_below cannot simulate p.  It also keeps the continuous optimum,
# about 1/sqrt(p), below ~9.5e7, where floats are finer than the searches' tol.
MIN_P = 2.0**-53


@dataclass(frozen=True)
class PoolingPlan:
    """A pooling study: prevalence, population, pool-size range, replicates."""

    p: float = 0.05
    N: int = 5000
    k_range: tuple[int, int] = (2, 10)
    n_reps: int = 1000

    def __post_init__(self):
        if not MIN_P <= self.p < 1.0:
            raise ValueError(f"p must lie in [2**-53, 1), got {self.p}")
        if self.N > simkit.MAX_ROW_DRAWS:
            raise ValueError(f"N must be at most {simkit.MAX_ROW_DRAWS}, got "
                             f"{self.N}")
        if len(self.k_range) != 2 or not (
                2 <= self.k_range[0] < self.k_range[1] <= self.N):
            raise ValueError(f"k_range must satisfy 2 <= lo < hi <= N = "
                             f"{self.N}, got {self.k_range}")
        if not self.candidates:
            raise ValueError(f"N must have a divisor in k_range = {self.k_range}, "
                             f"got {self.N}")
        if not 1 <= self.n_reps <= simkit.MAX_REPS:
            raise ValueError(f"n_reps must lie in [1, {simkit.MAX_REPS}], got "
                             f"{self.n_reps}")

    @property
    def candidates(self) -> list[int]:
        """The pool sizes in the k-range that divide N."""
        lo, hi = self.k_range
        return [k for k in range(lo, hi + 1) if self.N % k == 0]

    def run(self, root_seed: int):
        """The study's tables, figures to draw, summary and warnings."""
        p, N, n_reps, candidates = self.p, self.N, self.n_reps, self.candidates
        best_k, best_cost = optimal_pool_size_integer(N, p, candidates)
        cont = optimal_pool_size_continuous(p)
        helps = pooling_helps(p)
        ratios = [savings_ratio(k, p) for k in candidates]
        best_ratio = ratios[candidates.index(best_k)]
        warnings = []
        if not helps:
            warnings.append(
                f"pooling cannot beat individual testing at p={p} (it needs p < "
                f"{POOLING_HELPS_BELOW:.4f}); test individually"
            )
        elif best_ratio <= 1.0:
            warnings.append(
                f"no candidate pool size beats individual testing at p={p}: the "
                f"best, k={best_k}, has savings ratio {best_ratio:.4f}; test "
                f"individually"
            )
        if n_reps < 2:
            warnings.append(f"--reps {n_reps} gives no spread: simulated_sd "
                            f"reads 0 unmeasured; use --reps 2 or more")

        costs = [simulate_pooling(N, k, p, n_reps, root_seed) for k in candidates]
        ks, curve = cost_curve(N, p, *self.k_range)
        tables = {
            "pooling_candidates.csv": {
                "k": candidates,
                "n_pools": [N // k for k in candidates],
                "expected_tests_analytic": [
                    expected_tests(k, N // k, p) for k in candidates],
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
            "best_integer_k": best_k,
            "best_integer_expected_tests": best_cost,
            "pooling_helps": helps,
            "pooling_helps_integer": pooling_helps_integer(p),
            "continuous_optimum_k": cont.k,
            "continuous_optimum_at_boundary": cont.at_boundary,
            "bisection_cross_check_k": optimal_pool_size_root(p),
            "savings_ratio_at_best_k": best_ratio,
        }
        return tables, figs, summary, warnings


@dataclass(frozen=True)
class ContinuousOptimum:
    k: float | None  # None when pooling cannot beat individual testing
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
    can be optimized continuously.  1 - (1-p)^k is taken as
    -expm1(k log1p(-p)), as in ``expected_tests_per_person``, and is 1 at
    p = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("prevalence must lie in [0, 1]")
    retest = 1.0 if p == 1.0 else -math.expm1(k * math.log1p(-p))
    return n + k * n * retest


def expected_tests_per_person(k: float, p: float) -> float:
    """Expected tests per person, 1/k + 1 - (1-p)^k; independent of n.

    (1-p)^k - 1 is taken as expm1(k log1p(-p)), so a tiny p is not lost
    rounding 1-p.
    """
    return 1.0 / k - np.expm1(k * math.log1p(-p))


def pooling_helps(p: float) -> bool:
    """Whether some real pool size beats individual testing at prevalence p."""
    return p < POOLING_HELPS_BELOW


def pooling_helps_integer(p: float) -> bool:
    """Whether some integer pool size beats individual testing at prevalence p."""
    return p < POOLING_HELPS_INTEGER_BELOW


def optimal_pool_size_continuous(p: float) -> ContinuousOptimum:
    """Continuous pool size minimizing expected tests per person.

    The population size cancels, so the objective is c(k) = 1/k + 1 - (1-p)^k,
    which is unimodal on the search bracket [1.5, 1/p] while pooling helps.
    Where it cannot, there is no pool size: ``k`` is None and ``at_boundary``
    is set, as it is if the search ends on the bracket's edge.  The cost at
    ``k`` is ``expected_tests_per_person(k, p)``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("prevalence must lie strictly in (0, 1)")
    if not pooling_helps(p):
        return ContinuousOptimum(k=None, at_boundary=True)
    lo, hi, tol = 1.5, 1.0 / p, 1e-6
    k = minimize_scalar(lambda k: expected_tests_per_person(k, p), lo, hi, tol=tol)
    return ContinuousOptimum(k=k, at_boundary=min(k - lo, hi - k) <= tol)


def optimality_residual(k: float, p: float) -> float:
    """d/dk of tests per person, negated on its second term: 1/k^2 + ln(1-p)(1-p)^k.

    Zero exactly at the continuous optimum; used as an independent bisection
    cross-check of the golden-section answer.
    """
    log_q = math.log1p(-p)
    return 1.0 / (k * k) + log_q * math.exp(k * log_q)


def optimal_pool_size_root(p: float) -> float | None:
    """Continuous optimum found by bisection on the optimality condition.

    The residual changes sign once on [1.5, 1/p], at the optimum, so
    bisection runs on that whole bracket.  None where pooling cannot help.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("prevalence must lie strictly in (0, 1)")
    if not pooling_helps(p):
        return None
    return solve_root(lambda k: optimality_residual(k, p), 1.5, 1.0 / p, tol=1e-6)


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
    N: int, k: int, p: float, n_reps: int, root_seed: int
) -> SummaryStats:
    """Monte Carlo summary of the total test count for N people in pools of k.

    Per replicate: N Bernoulli(p) disease statuses, partitioned into N // k
    pools of k; total tests = N // k + k * (number of positive pools).
    Replicate ``i``'s statuses are ``uniforms_below(stream(root_seed,
    f"pooling-k{k}", i).random_raw(N), p)``, drawn on
    ``simkit.run_replicates_batched``.
    """
    if k < 2:
        raise ValueError("pool size k must be >= 2")
    if N % k != 0:
        raise ValueError("pool size k must divide N")
    # closed interval: p = 0 and p = 1 are useful degenerate checks
    if not 0.0 <= p <= 1.0:
        raise ValueError("prevalence must lie in [0, 1]")
    n = N // k

    def block_totals(block: np.ndarray) -> np.ndarray:
        totals = np.empty(len(block))
        for r, row in enumerate(simkit.uniforms_below(block, p)):
            # person j sits in pool j // k; the sorted pool indices of the
            # positives change value once per further positive pool
            pools = row.nonzero()[0] // k
            further = np.count_nonzero(pools[1:] != pools[:-1])
            totals[r] = n + k * (further + 1 if pools.size else 0)
        return totals

    return summarize(simkit.run_replicates_batched(
        n_reps, f"pooling-k{k}", root_seed, N, block_totals))


def cost_curve(N: int, p: float, k_lo: float, k_hi: float, points: int = 200):
    """Tabulate expected tests over a grid of pool sizes (k, E[tests])."""
    if not 2 <= k_lo < k_hi <= N:
        raise ValueError("need 2 <= k_lo < k_hi <= N")
    ks = np.linspace(k_lo, k_hi, points)
    costs = np.array([expected_tests(k, N / k, p) for k in ks])
    return ks, costs
