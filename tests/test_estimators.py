import math

import numpy as np
import pytest
from scipy.special import ndtri

from statlab import simkit
from statlab.estimators import (
    IQR_TO_SIGMA,
    EstimatorStudyPlan,
    run_estimator_study,
    sigma_hat_iqr,
    sigma_hat_s,
)


class TestConstants:
    def test_iqr_constant_is_twice_upper_quartile_z(self):
        assert IQR_TO_SIGMA == pytest.approx(2.0 * ndtri(0.75), abs=1e-5)
        assert IQR_TO_SIGMA == pytest.approx(1.34898, abs=1e-5)


class TestSigmaHatIqr:
    def test_small_sample(self):
        # type-7 quartiles of {1,2,3,4} give IQR = 1.5
        assert sigma_hat_iqr([1, 2, 3, 4]) == pytest.approx(
            1.5 / 1.3489795, rel=1e-9
        )

    def test_constant_sample(self):
        assert sigma_hat_iqr([5.0] * 10) == 0.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            sigma_hat_iqr([1.0, 2.0, 3.0])

    def test_location_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=60)
        assert sigma_hat_iqr(x + 1234.5) == pytest.approx(
            sigma_hat_iqr(x), abs=1e-12
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=60)
        assert sigma_hat_iqr(2.0 * x) == 2.0 * sigma_hat_iqr(x)
        assert sigma_hat_iqr(3.0 * x) == pytest.approx(
            3.0 * sigma_hat_iqr(x), rel=1e-12
        )


class TestSigmaHatS:
    def test_simple(self):
        assert sigma_hat_s([1, 2, 3]) == pytest.approx(1.0)

    def test_hand_computed(self):
        assert sigma_hat_s([2, 4, 6, 8]) == pytest.approx(2.5820, abs=1e-4)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=40)
        assert sigma_hat_s(2.0 * x) == 2.0 * sigma_hat_s(x)

    def test_location_invariance(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=40)
        assert sigma_hat_s(x - 99.0) == pytest.approx(sigma_hat_s(x), abs=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError):
            sigma_hat_s([1.0])


class TestRowWise:
    @pytest.mark.parametrize("n", [4, 5, 100, 401])
    def test_rows_match_single_calls(self, n):
        x = np.random.default_rng(n).normal(3.0, 2.0, size=(9, n))
        for estimator in (sigma_hat_iqr, sigma_hat_s):
            rows = estimator(x)
            assert rows.shape == (9,)
            assert np.array_equal(rows, [estimator(r) for r in x])
            assert isinstance(estimator(x[0]), float)

    def test_too_small_rows(self):
        with pytest.raises(ValueError):
            sigma_hat_iqr(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            sigma_hat_s(np.zeros((5, 1)))


@pytest.fixture(scope="module")
def default_result():
    return run_estimator_study(EstimatorStudyPlan(), root_seed=20070420)


class TestStudy:
    def test_distribution_shapes(self, default_result):
        for key, vec in default_result.distributions.items():
            assert vec.shape == (1000,)
            assert np.all(vec >= 0)

    def test_iqr_estimator_spread(self, default_result):
        assert default_result.summaries[("iqr", 100)].iqr == pytest.approx(
            0.50, abs=0.07
        )
        assert default_result.summaries[("iqr", 400)].iqr == pytest.approx(
            0.25, abs=0.07
        )

    def test_s_estimator_spread(self, default_result):
        assert default_result.summaries[("s", 100)].iqr == pytest.approx(
            0.30, abs=0.05
        )
        assert default_result.summaries[("s", 400)].iqr == pytest.approx(
            0.16, abs=0.05
        )

    def test_both_center_on_true_sigma(self, default_result):
        for key, s in default_result.summaries.items():
            assert s.median == pytest.approx(math.pi, abs=0.05)

    def test_s_is_more_efficient_across_seeds(self):
        for seed in range(20070420, 20070425):
            res = run_estimator_study(EstimatorStudyPlan(), root_seed=seed)
            for n in (100, 400):
                assert (
                    res.summaries[("s", n)].iqr < res.summaries[("iqr", n)].iqr
                )

    def test_sqrt_n_scaling(self, default_result):
        ratio = (
            default_result.summaries[("iqr", 100)].iqr
            / default_result.summaries[("iqr", 400)].iqr
        )
        assert 1.7 <= ratio <= 2.3

    def test_determinism(self):
        plan = EstimatorStudyPlan(n_reps=50)
        a = run_estimator_study(plan, root_seed=3)
        b = run_estimator_study(plan, root_seed=3)
        for key in a.distributions:
            assert np.array_equal(a.distributions[key], b.distributions[key])

    @pytest.mark.parametrize("block_values", [None, 300])
    def test_matches_per_replicate_definition(self, block_values, monkeypatch):
        # replicate i is sigma_hat_*(make_stream(seed, id, i).normals(...)) bit
        # for bit, at the default block cap and at one whose blocks (8 rows at
        # n = 37, 3 at n = 100) do not divide n_reps
        if block_values is not None:
            monkeypatch.setattr(simkit, "_BLOCK_VALUES", block_values)
        plan = EstimatorStudyPlan(sample_sizes=(37, 100), true_sd=0.5, n_reps=250)
        res = run_estimator_study(plan, root_seed=17)
        for n in plan.sample_sizes:
            for i in range(plan.n_reps):
                draws = simkit.make_stream(17, f"estimator-n{n}", i).normals(
                    n, plan.true_mean, plan.true_sd
                )
                assert res.distributions[("iqr", n)][i] == sigma_hat_iqr(draws)
                assert res.distributions[("s", n)][i] == sigma_hat_s(draws)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            EstimatorStudyPlan(sample_sizes=(2,))
        with pytest.raises(ValueError):
            EstimatorStudyPlan(true_sd=0.0)
        with pytest.raises(ValueError):
            EstimatorStudyPlan(n_reps=1)
