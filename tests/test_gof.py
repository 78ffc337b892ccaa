import numpy as np
import pytest

from oracles import chisq_sample, replicate_generator
from statlab.gof import (
    GofPlan,
    bin_uniform,
    binned_chisq_density,
    chisq_density,
    pearson_statistic,
    shape_distance,
    simulate_uniform_gof,
)
from statlab.numerics import integrate_interval
from statlab import simkit


class TestPearsonStatistic:
    def test_perfect_fit(self):
        assert pearson_statistic([2, 2, 2, 2], [2, 2, 2, 2]) == 0.0

    def test_hand_computed_four(self):
        obs = [4, 0, 2, 2, 2, 2, 2, 2]
        assert pearson_statistic(obs, [2] * 8) == pytest.approx(4.0)

    def test_hand_computed_one(self):
        obs = [3, 1, 2, 2, 2, 2, 2, 2]
        assert pearson_statistic(obs, [2] * 8) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_statistic([1, 2], [1, 2, 3])

    def test_nonpositive_expected(self):
        with pytest.raises(ValueError):
            pearson_statistic([1, 1], [2, 0])

    def test_total_mismatch(self):
        with pytest.raises(ValueError):
            pearson_statistic([1, 1], [3, 3])

    def test_rows_match_single_calls(self):
        obs = [[4, 0, 2, 2, 2, 2, 2, 2], [3, 1, 2, 2, 2, 2, 2, 2], [2] * 8]
        stats = pearson_statistic(obs, [2] * 8)
        assert stats.shape == (3,)
        assert stats.tolist() == [pearson_statistic(row, [2] * 8) for row in obs]

    def test_row_total_mismatch(self):
        with pytest.raises(ValueError, match="totals"):
            pearson_statistic([[2, 2], [1, 1]], [2, 2])


class TestBinUniform:
    def test_direct_binning(self):
        assert bin_uniform([0.5, 1.5, 1.7], 2).tolist() == [1, 2]

    def test_all_in_first_bin(self):
        assert bin_uniform([0.2, 0.9, 1.0], 4).tolist() == [3, 0, 0, 0]

    def test_boundary_goes_to_lower_bin(self):
        # bins are (j-1, j]: a draw exactly at 1.0 belongs to bin 1
        assert bin_uniform([1.0], 2).tolist() == [1, 0]

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(31)
        draws = rng.uniform(0, 8, size=1000)
        assert bin_uniform(draws, 8).sum() == 1000

    def test_rows_binned_like_single_samples(self):
        draws = np.random.default_rng(33).uniform(0, 5, size=(4, 3, 7))
        counts = bin_uniform(draws, 5)
        assert counts.shape == (4, 3, 5)
        for row, sample in zip(counts.reshape(-1, 5), draws.reshape(-1, 7)):
            assert row.tolist() == bin_uniform(sample, 5).tolist()

    def test_large_sample_balance(self):
        rng = np.random.default_rng(32)
        counts = bin_uniform(rng.uniform(0, 8, size=100_000), 8)
        se = np.sqrt(100_000 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - 12_500) < 5 * se)


@pytest.fixture(scope="module")
def default_result():
    return simulate_uniform_gof(GofPlan(), root_seed=20070420)


class TestSimulate:
    def test_statistic_vectors(self, default_result):
        for n in (16, 64):
            vec = default_result[n]
            assert vec.shape == (10_000,)
            assert np.all(vec >= 0)

    def test_discreteness_lattice(self, default_result):
        # expected count 2 puts the statistic on a 0.5 lattice, count 8 on 0.125
        s16 = default_result[16]
        s64 = default_result[64]
        assert np.allclose(s16 * 2, np.round(s16 * 2), atol=1e-9)
        assert np.allclose(s64 * 8, np.round(s64 * 8), atol=1e-9)

    def test_exact_mean_identity(self, default_result):
        # E[statistic] = bins - 1 holds exactly for any n under the null
        assert default_result[64].mean() == pytest.approx(7.0, abs=0.15)
        assert default_result[16].mean() == pytest.approx(7.0, abs=0.2)

    def test_determinism(self):
        plan = GofPlan(n_reps=100)
        a = simulate_uniform_gof(plan, root_seed=5)
        b = simulate_uniform_gof(plan, root_seed=5)
        for n in plan.sample_sizes:
            assert np.array_equal(a[n], b[n])

    @pytest.mark.parametrize("bins, sizes", [(8, (16, 64)), (5, (5, 25))])
    def test_matches_per_replicate_definition(self, bins, sizes, monkeypatch):
        # batching changes no number: every statistic is the one replicate i
        # gets from its own stream, for any block size
        plan = GofPlan(bins=bins, sample_sizes=sizes, n_reps=500)
        serial = simulate_uniform_gof(plan, root_seed=11)
        # small blocks, none of whose sizes divides n_reps
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 1000)
        blocked = simulate_uniform_gof(plan, root_seed=11)
        for n in sizes:
            assert plan.n_reps % (1000 // n) != 0
            expected = np.full(bins, n / bins)
            definition = np.array([
                pearson_statistic(
                    bin_uniform(
                        bins * replicate_generator(11, f"gof-n{n}", i).random(n),
                        bins),
                    expected,
                )
                for i in range(plan.n_reps)
            ])
            assert np.array_equal(serial[n], definition)
            assert np.array_equal(blocked[n], definition)

    def test_plan_validation(self):
        # each refusal starts with the field it rejects, which the cli maps
        # to its flag
        for kwargs, field in [
            ({"bins": 1}, "bins"),
            ({"sample_sizes": (10,)}, "sample_sizes"),  # not a multiple of 8
            ({"sample_sizes": (4,)}, "sample_sizes"),  # fewer than 8
            ({"sample_sizes": (16, 64, 16)}, "sample_sizes"),
            ({"n_reps": 0}, "n_reps"),
            ({"n_reps": simkit.MAX_REPS + 1}, "n_reps"),
            ({"sample_sizes": tuple(range(8, 96, 8)),
              "n_reps": simkit.MAX_REPS}, "n_reps"),  # rows held
            ({"sample_sizes": (simkit.MAX_ROW_DRAWS,), "n_reps": 10_001},
             "n_reps"),  # words drawn
        ]:
            with pytest.raises(ValueError) as excinfo:
                GofPlan(**kwargs)
            assert str(excinfo.value).split()[0] == field, kwargs

    def test_row_width_bound(self):
        # sample sizes and the bin count are at most one replicate row wide
        GofPlan(bins=2, sample_sizes=(simkit.MAX_ROW_DRAWS,))
        GofPlan(bins=simkit.MAX_ROW_DRAWS, sample_sizes=(simkit.MAX_ROW_DRAWS,))
        with pytest.raises(ValueError, match="^sample_sizes "):
            GofPlan(bins=2, sample_sizes=(simkit.MAX_ROW_DRAWS + 2,))
        with pytest.raises(ValueError, match="^bins "):
            GofPlan(bins=simkit.MAX_ROW_DRAWS + 1,
                    sample_sizes=(2 * simkit.MAX_ROW_DRAWS + 2,))


class TestChisqDensity:
    def test_df2_at_zero(self):
        assert chisq_density(0.0, 2) == 0.5

    def test_normalization(self):
        res = integrate_interval(lambda x: chisq_density(x, 7), 0.0, 200.0,
                                 tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_moments_by_quadrature(self):
        mean = integrate_interval(
            lambda x: x * chisq_density(x, 7), 0.0, 300.0, tol=1e-10
        ).value
        second = integrate_interval(
            lambda x: x * x * chisq_density(x, 7), 0.0, 300.0, tol=1e-10
        ).value
        assert mean == pytest.approx(7.0, rel=1e-8)
        assert second - mean**2 == pytest.approx(14.0, rel=1e-7)

    def test_matches_scipy(self):
        from scipy.stats import chi2

        for x in (0.5, 3.0, 7.0, 15.0):
            assert chisq_density(x, 7) == pytest.approx(
                chi2.pdf(x, 7), rel=1e-12
            )

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            chisq_density(-1.0, 7)
        with pytest.raises(ValueError, match="df"):  # and df below 1
            chisq_density(1.0, 0)

    @pytest.mark.parametrize("df", [1, 2, 7])
    def test_bin_averages_match_scipy(self, df):
        # df = 1 is infinite at 0, the left edge of the first bin
        from scipy.special import chdtr

        edges = np.linspace(0.0, 20.0, 41)
        exact = np.diff(chdtr(df, edges)) / np.diff(edges)
        avgs = binned_chisq_density(df, edges)
        assert np.all(np.isfinite(avgs))
        assert np.allclose(avgs, exact, rtol=1e-9, atol=1e-12)


class TestShapeDistance:
    def test_oracle_sampler_close(self):
        draws = chisq_sample(10_000, df=7, seed=17)
        assert shape_distance(draws, 7) < 0.01

    def test_large_n_closer_than_small_n(self):
        result = simulate_uniform_gof(GofPlan(), root_seed=20070420)
        d16 = shape_distance(result[16], 7)
        d64 = shape_distance(result[64], 7)
        assert d64 < d16

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shape_distance([], 7)
