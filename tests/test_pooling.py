import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import replicate_generator
from statlab import simkit
from statlab.pooling import (
    MIN_P,
    POOLING_HELPS_BELOW,
    POOLING_HELPS_INTEGER_BELOW,
    ContinuousOptimum,
    PoolingPlan,
    cost_curve,
    expected_tests,
    optimal_pool_size_continuous,
    optimal_pool_size_integer,
    optimal_pool_size_root,
    pooling_helps,
    pooling_helps_integer,
    savings_ratio,
    simulate_pooling,
    expected_tests_per_person,
)

# simulated candidate values reported from a single unseeded run; compared
# loosely (3 simulation SEs at numsim=1000 is roughly +-11 tests)
REPORTED_SIMULATED = {2: 2988.7, 4: 2178.9, 5: 2126.5, 8: 2306.2, 10: 2501.9}
ANALYTIC_CANDIDATES = {2: 2987.5, 4: 2177.5, 5: 2131.1, 8: 2307.9, 10: 2506.3}


class TestExpectedTests:
    def test_paper_design(self):
        assert expected_tests(10, 500, 0.05) == pytest.approx(2506.3, abs=0.05)

    def test_optimal_design(self):
        assert expected_tests(5, 1000, 0.05) == pytest.approx(2130, abs=2)

    def test_zero_prevalence_costs_one_test_per_pool(self):
        assert expected_tests(7, 300, 0.0) == 300.0

    def test_certain_prevalence_retests_every_pool(self):
        assert expected_tests(7, 300, 1.0) == 300.0 + 7 * 300

    def test_tiny_prevalence_is_correctly_rounded(self):
        # 1 - (1-p)**k from a rounded 1-p made the retest term 11 % high here
        p = 2e-16
        exact = 500 + 5000 * (1 - (1 - Fraction(p)) ** 10)
        assert expected_tests(10, 500, p) == float(exact)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = float(rng.uniform(1, 40))
            n = float(rng.uniform(1, 1000))
            p = float(rng.uniform(0, 1))
            val = expected_tests(k, n, p)
            assert n <= val <= n + n * k + 1e-9

    def test_invalid_prevalence(self):
        with pytest.raises(ValueError):
            expected_tests(5, 100, 1.5)
        # and a pool size below 1 or no pools
        with pytest.raises(ValueError, match="k must"):
            expected_tests(0.5, 100, 0.05)
        with pytest.raises(ValueError, match="n must"):
            expected_tests(5, 0, 0.05)


class TestContinuousOptimum:
    def test_paper_prevalence(self):
        opt = optimal_pool_size_continuous(0.05)
        assert opt.k == pytest.approx(5.022, abs=0.005)
        assert not opt.at_boundary

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_prevalence_outside_open_interval_rejected(self, p):
        with pytest.raises(ValueError, match="strictly"):
            optimal_pool_size_continuous(p)
        with pytest.raises(ValueError, match="strictly"):
            optimal_pool_size_root(p)

    def test_agrees_with_bisection(self):
        for p in (0.05, 0.01, 0.1):
            golden = optimal_pool_size_continuous(p).k
            bisect = optimal_pool_size_root(p)
            assert abs(golden - bisect) < 2e-3

    @pytest.mark.parametrize("p", [MIN_P, 2e-16, 1e-14, 0.05])
    def test_tiny_prevalence(self, p):
        # 1 - p is not rounded away: down to the smallest plannable p both
        # tracks find the optimum, which tends to 1/sqrt(p) + 1/2 as p -> 0
        golden = optimal_pool_size_continuous(p).k
        bisect = optimal_pool_size_root(p)
        assert golden == pytest.approx(bisect, rel=1e-6)
        if p < 0.05:
            assert golden == pytest.approx(1 / math.sqrt(p) + 0.5, rel=1e-6)

    def test_low_prevalence(self):
        # frozen bisection oracle for p = 0.01
        assert optimal_pool_size_continuous(0.01).k == pytest.approx(
            10.516, abs=0.02
        )

    def test_high_prevalence_flags_boundary(self):
        opt = optimal_pool_size_continuous(0.5)
        assert isinstance(opt, ContinuousOptimum)
        assert opt.at_boundary
        # pooling never beats one test per person at p = 0.5
        ks = np.linspace(2, 10, 100)
        assert all(expected_tests_per_person(k, 0.5) > 1.0 for k in ks)

    def test_helps_below_dorfman_threshold(self):
        # golden section and bisection agree on an interior optimum that beats
        # individual testing exactly while p < 1 - e^(-1/e); above it neither
        # track reports a pool size
        assert POOLING_HELPS_BELOW == pytest.approx(0.30780, abs=1e-5)
        ks = np.linspace(1.5, 20, 4001)
        for p in np.linspace(0.0, 1.0, 400)[1:-1]:
            opt = optimal_pool_size_continuous(p)
            root = optimal_pool_size_root(p)
            if p < POOLING_HELPS_BELOW:
                assert pooling_helps(p)
                assert abs(opt.k - root) < 1e-4
                assert not opt.at_boundary
                assert expected_tests_per_person(opt.k, p) < 1.0
            else:
                assert not pooling_helps(p)
                assert opt.k is None and root is None
                assert opt.at_boundary
                assert np.all(expected_tests_per_person(ks, p) >= 1.0)

    def test_integer_threshold_matches_brute_force(self):
        # some whole pool size costs under one test per person exactly while
        # p < 1 - 3^(-1/3); between that and the real-k threshold only
        # fractional pools would help
        assert POOLING_HELPS_INTEGER_BELOW == pytest.approx(0.30663, abs=1e-5)
        assert pooling_helps(0.307) and not pooling_helps_integer(0.307)
        ks = np.arange(2, 201)
        for p in np.linspace(0.0, 1.0, 400)[1:-1]:
            helps = bool(np.any(expected_tests_per_person(ks, p) < 1.0))
            assert pooling_helps_integer(p) == helps

    def test_no_false_boundary_at_low_prevalence(self):
        for p in np.linspace(0.0, 0.0125, 200)[1:]:
            assert not optimal_pool_size_continuous(p).at_boundary

    def test_independent_of_population_size(self):
        # k* depends on p only; the minimizer of E[T] over a k-grid must
        # agree for very different populations
        ks = np.linspace(2, 10, 2001)
        for p in (0.05, 0.02):
            argmins = []
            for N in (1_000, 1_000_000):
                costs = [expected_tests(k, N / k, p) for k in ks]
                argmins.append(ks[int(np.argmin(costs))])
            assert argmins[0] == argmins[1]


class TestIntegerOptimum:
    def test_paper_candidates(self):
        k, _ = optimal_pool_size_integer(5000, 0.05, [2, 4, 5, 8, 10])
        assert k == 5

    def test_analytic_candidate_values(self):
        for k, expected in ANALYTIC_CANDIDATES.items():
            value = expected_tests(k, 5000 // k, 0.05)
            assert value == pytest.approx(expected, abs=0.5)
            # loose comparison against the single-run values in the write-up
            assert value == pytest.approx(REPORTED_SIMULATED[k], abs=11)

    def test_singleton(self):
        k, cost = optimal_pool_size_integer(100, 0.05, [4])
        assert k == 4
        assert cost == pytest.approx(expected_tests(4, 25, 0.05))

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            optimal_pool_size_integer(100, 0.05, [])

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            optimal_pool_size_integer(100, 0.05, [3])


class TestSavingsRatio:
    def test_paper_value(self):
        assert savings_ratio(5, 0.05) == pytest.approx(2.35, abs=0.01)

    def test_zero_prevalence(self):
        assert savings_ratio(8, 0.0) == pytest.approx(8.0)

    def test_certain_infection(self):
        assert savings_ratio(8, 1.0) == pytest.approx(8.0 / 9.0)
        assert savings_ratio(8, 1.0) < 1.0

    def test_independent_of_n(self):
        # formula uses n = 1 internally; check against an explicit n
        for k, p in ((5, 0.05), (10, 0.02)):
            n = 123
            assert savings_ratio(k, p) == pytest.approx(
                n * k / expected_tests(k, n, p)
            )


def _replicate_totals(N, k, p, n_reps, seed, monkeypatch):
    """Per-replicate totals of simulate_pooling, as the replicate engine
    returned them."""
    studies = []
    run = simkit.run_replicates_batched

    def recording(*args, **kwargs):
        studies.append(run(*args, **kwargs))
        return studies[-1]

    monkeypatch.setattr(simkit, "run_replicates_batched", recording)
    simulate_pooling(N, k, p, n_reps, seed)
    return studies[0]


class TestSimulatePooling:
    def test_agrees_with_analytic(self):
        cost = simulate_pooling(5000, 10, 0.05, 1000, root_seed=20070420)
        se = cost.sd / np.sqrt(1000)
        assert abs(cost.mean - 2506.3) < 3 * se

    def test_degenerate_prevalences(self):
        zero = simulate_pooling(40, 4, 0.0, 20, 1)
        assert zero.mean == 10.0
        assert zero.sd == 0.0
        one = simulate_pooling(40, 4, 1.0, 20, 1)
        assert one.mean == 50.0

    def test_agreement_over_random_designs(self):
        rng = np.random.default_rng(123)
        for trial in range(10):
            k = int(rng.integers(2, 11))
            n = int(rng.integers(10, 51))
            p = float(rng.uniform(0.01, 0.3))
            cost = simulate_pooling(n * k, k, p, 10_000, root_seed=500 + trial)
            analytic = expected_tests(k, n, p)
            se = cost.sd / np.sqrt(10_000)
            assert abs(cost.mean - analytic) < 3 * se

    def test_replicate_variance_matches_binomial(self):
        k, n, p = 8, 25, 0.07
        cost = simulate_pooling(n * k, k, p, 10_000, root_seed=7)
        q = 1.0 - (1.0 - p) ** k
        theory = k * k * n * q * (1.0 - q)
        assert cost.sd**2 == pytest.approx(theory, rel=0.15)

    def test_replicate_totals_within_bounds(self, monkeypatch):
        totals = _replicate_totals(60, 6, 0.4, 500, 3, monkeypatch)
        assert np.all(totals >= 10)
        assert np.all(totals <= 70)

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
    def test_totals_match_any_over_pools(self, k, p, monkeypatch):
        # each replicate's total equals the any-positive-per-pool definition
        # on the same Bernoulli statuses, those of the streams of experiment
        # id f"pooling-k{k}", bit for bit
        N, n = 30 * k, 30

        def by_any(i):
            statuses = replicate_generator(9, f"pooling-k{k}", i).random(N) < p
            pos = np.any(statuses.reshape(n, k), axis=1).sum()
            return float(n + k * pos)

        expected = np.array([by_any(i) for i in range(300)])
        totals = _replicate_totals(N, k, p, 300, 9, monkeypatch)
        assert np.array_equal(totals, expected)

    @pytest.mark.parametrize("N", [40, 200, 16400])  # short, middle, wide rows
    def test_degenerate_prevalences_every_replicate(self, N, monkeypatch):
        n = N // 4
        for p, total in ((0.0, n), (1.0, n + N)):
            totals = _replicate_totals(N, 4, p, 70, 2, monkeypatch)
            assert totals.tolist() == [total] * 70

    def test_design_validation(self):
        with pytest.raises(ValueError):
            simulate_pooling(11, 2, 0.1, 10, 1)
        with pytest.raises(ValueError):
            simulate_pooling(10, 1, 0.1, 10, 1)
        with pytest.raises(ValueError):
            simulate_pooling(10, 2, -0.1, 10, 1)
        with pytest.raises(ValueError):
            simulate_pooling(10, 2, 1.5, 10, 1)


class TestCostCurve:
    def test_minimum_near_continuous_optimum(self):
        ks, costs = cost_curve(5000, 0.05, 2, 10, points=801)
        assert ks[int(np.argmin(costs))] == pytest.approx(5.022, abs=0.02)

    def test_pooling_always_saves_at_low_prevalence(self):
        ks, costs = cost_curve(5000, 0.05, 2, 10)
        assert np.all(costs < 5000)

    def test_zero_prevalence_curve_is_decreasing(self):
        _, costs = cost_curve(1000, 0.0, 2, 20)
        assert np.all(np.diff(costs) < 0)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            cost_curve(100, 0.05, 10, 2)


class TestPoolingPlan:
    def test_candidates_are_the_divisors_in_range(self):
        assert PoolingPlan().candidates == [2, 4, 5, 8, 10]
        assert PoolingPlan(N=97 * 3, k_range=(2, 4)).candidates == [3]

    @pytest.mark.parametrize("kwargs, field", [
        ({"p": 0.0}, "p"),
        ({"p": 1.0}, "p"),
        ({"p": float("nan")}, "p"),
        ({"k_range": (7, 7)}, "k_range"),
        ({"k_range": (1, 4)}, "k_range"),
        ({"k_range": (2, 3, 4)}, "k_range"),
        ({"N": 8, "k_range": (2, 9)}, "k_range"),
        ({"N": 97}, "N"),
        ({"n_reps": 0}, "n_reps"),
        ({"p": MIN_P / 2}, "p"),
        ({"N": simkit.MAX_ROW_DRAWS + 1}, "N"),
        ({"N": 10**400}, "N"),
    ])
    def test_invalid_plan_message_starts_with_its_field(self, kwargs, field):
        with pytest.raises(ValueError) as excinfo:
            PoolingPlan(**kwargs)
        assert str(excinfo.value).split()[0] == field
