import math
import tracemalloc

import numpy as np
import pytest

from statlab import gof, mh, numerics
from statlab.numerics import (
    QuadratureDivergenceError,
    bin_integrals,
    density_vs_reference,
    histogram_counts,
    integrate_interval,
    integrate_real_line,
    minimize_scalar,
    quantile_type7,
    solve_root,
    summarize,
)


def target_g(y):
    return (1.0 + abs(y)) ** 3 * math.exp(-(y**4))


class TestIntegrateRealLine:
    def test_target_density_value(self):
        res = integrate_real_line(target_g, tol=1e-10)
        assert res.value == pytest.approx(6.809611, abs=1e-5)
        assert res.abs_error >= 0
        assert res.evaluations >= 1

    def test_double_exponential(self):
        res = integrate_real_line(lambda y: math.exp(-abs(y)))
        assert res.value == pytest.approx(2.0, rel=1e-9)

    def test_gaussian(self):
        res = integrate_real_line(lambda y: math.exp(-(y**2) / 2.0))
        assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-9)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureDivergenceError, match="budget of 20 "):
            integrate_real_line(target_g, tol=1e-14, budget=20)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_real_line(target_g, tol=0.0)


class TestIntegrateInterval:
    def test_polynomial_exact(self):
        res = integrate_interval(lambda x: x * x, 0.0, 3.0)
        assert res.value == pytest.approx(9.0, rel=1e-12)


class TestMinimizeScalar:
    def test_pooled_cost_optimum(self):
        x = minimize_scalar(lambda k: 1.0 / k + 1.0 - 0.95**k, 2, 10, tol=1e-6)
        assert x == pytest.approx(5.022, abs=1e-3)

    def test_quadratic_vertex(self):
        def f(x):
            return (x - 3.0) ** 2

        x = minimize_scalar(f, 0, 10)
        assert x == pytest.approx(3.0, abs=1e-5)
        assert f(x) == pytest.approx(0.0, abs=1e-9)

    def test_cosine_minimum(self):
        x = minimize_scalar(math.cos, 3, 4)
        assert x == pytest.approx(math.pi, abs=1e-5)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x, 2.0, 1.0)


class TestSolveRoot:
    def test_pooling_optimality_condition(self):
        k = solve_root(
            lambda k: 1.0 / k**2 + math.log(0.95) * 0.95**k, 2, 10, tol=1e-8
        )
        assert k == pytest.approx(5.022, abs=1e-3)

    def test_linear(self):
        assert solve_root(lambda x: x - 1.0, 0, 2) == pytest.approx(1.0, abs=1e-6)

    def test_low_prevalence_condition(self):
        # frozen bisection oracle value for p=0.01
        k = solve_root(
            lambda k: 1.0 / k**2 + math.log(0.99) * 0.99**k, 2, 50, tol=1e-8
        )
        assert k == pytest.approx(10.516238, abs=1e-4)

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            solve_root(lambda x: x * x + 1.0, -1, 1)

    def test_root_at_an_end_is_returned_exactly(self):
        assert solve_root(lambda x: x, 0.0, 1.0) == 0.0
        assert solve_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_empty_bracket(self):
        with pytest.raises(ValueError, match="lo < hi"):
            solve_root(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError, match="lo < hi"):
            solve_root(lambda x: x, 1.0, 0.0)


class TestQuantileType7:
    def test_interpolated_quartile(self):
        # h = 1.75 under the type-7 rule
        assert quantile_type7([1, 2, 3, 4], (0.25,)) == pytest.approx((1.75,))

    def test_extremes(self):
        x = [9.5, -2.0, 4.0, 0.0, 7.25]
        assert quantile_type7(x, (0.0,)) == (min(x),)
        assert quantile_type7(x, (1.0,)) == (max(x),)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=37)
        ps = np.linspace(0, 1, 50)
        qs = quantile_type7(x, tuple(ps))
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))

    def test_affine_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=rng.integers(2, 40))
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.normal())
            p = float(rng.uniform())
            [q] = quantile_type7(x, (p,))
            assert quantile_type7(a * x + b, (p,)) == pytest.approx(
                (a * q + b,), rel=1e-12, abs=1e-12
            )

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            quantile_type7([], (0.5,))

    @pytest.mark.parametrize("n", [4, 5, 100, 401])
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_rows_match_single_calls(self, n, p):
        x = np.random.default_rng(n).normal(size=(7, n))
        [rows] = quantile_type7(x, (p,))
        assert rows.shape == (7,)
        assert np.array_equal(rows, [quantile_type7(r, (p,))[0] for r in x])
        assert isinstance(quantile_type7(x[0], (p,))[0], float)


    @pytest.mark.parametrize("shape", [(1,), (2,), (101,), (7, 4), (7, 401)])
    def test_several_probabilities_match_single_calls(self, shape):
        x = np.random.default_rng(shape[-1]).normal(size=shape)
        ps = (0.25, 0.5, 0.0, 0.75, 1.0)
        for q, p in zip(quantile_type7(x, ps), ps, strict=True):
            [single] = quantile_type7(x, (p,))
            assert np.array_equal(q, single)
            assert type(q) is type(single)
        with pytest.raises(ValueError):
            quantile_type7(x, (0.5, 1.5))


class TestHistogramVsReference:
    """A sample's ``histogram_counts`` set beside a reference density by
    ``density_vs_reference``."""

    @pytest.mark.parametrize("edges, lo, hi, width", [
        (mh.EDGES, -3.0, 3.0, 0.1499999999999999),
        (gof.EDGES, 0.0, 20.0, 0.5),
    ])
    def test_equals_the_written_out_formula(self, edges, lo, hi, width):
        # np.histogram's own edges and bin width; on mh's window that width
        # is not 6 / 40, on gof's it is 0.5
        rng = np.random.default_rng(8)
        samples = rng.normal(0.5 * (lo + hi), 0.4 * (hi - lo), size=5001)
        reference = rng.uniform(0.0, 0.3, size=40)
        empirical, distance = density_vs_reference(
            histogram_counts(samples, edges), samples.size, edges, reference)
        counts, np_edges = np.histogram(samples, bins=40, range=(lo, hi))
        assert np.array_equal(np_edges, edges)
        assert np_edges[1] - np_edges[0] == width
        former = counts / (samples.size * width)
        assert np.array_equal(empirical, former)
        assert distance == float(np.max(np.abs(former - reference)))

    def test_slices_count_as_one_whole_array_call(self):
        # samples over several slices, the last one short, with edge values
        # and out-of-window values among them
        rng = np.random.default_rng(9)
        samples = rng.normal(0.0, 2.0, size=3 * numerics._HISTOGRAM_SLICE + 17)
        samples[::97] = rng.choice(mh.EDGES, size=samples[::97].size)
        counts = histogram_counts(samples, mh.EDGES)
        assert np.array_equal(counts, np.histogram(samples, 40, (-3.0, 3.0))[0])

    @pytest.mark.parametrize("edges, lo, hi", [
        (mh.EDGES, -3.0, 3.0), (gof.EDGES, 0.0, 20.0),
    ])
    def test_edge_and_non_finite_samples_count_as_np_histogram(self, edges,
                                                              lo, hi):
        # +-inf and NaN are not counted; the right edge is, as a slice's last
        # sample and in a slice made only of it
        n = numerics._HISTOGRAM_SLICE
        rng = np.random.default_rng(13)
        first = rng.uniform(lo - 1.0, hi + 1.0, size=n)
        first[::89] = rng.choice([np.inf, -np.inf, np.nan], size=first[::89].size)
        first[-1] = edges[-1]
        parts = (first, np.full(n, edges[-1]),
                 np.array([edges[0], np.nan, -np.inf, np.inf, *edges, edges[-1]]))
        for part in (*parts, np.concatenate(parts)):
            assert np.array_equal(histogram_counts(part, edges),
                                  np.histogram(part, 40, (lo, hi))[0])

    def test_allocates_under_a_megabyte_beyond_its_input(self):
        # a slice's 64 KiB of bin indices; np.histogram on slices of the same
        # size peaked at 338 KiB, and over the whole array at several MB
        samples = np.random.default_rng(10).normal(size=2_000_000)
        tracemalloc.start()
        try:
            histogram_counts(samples, mh.EDGES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 17

    def test_outside_samples_count_in_the_denominator_only(self):
        # two of the five samples fall outside [0, 2]; the right edge is in
        edges = np.array([0.0, 1.0, 2.0])
        samples = [0.5, 2.0, -0.1, 7.0, 1.5]
        counts = histogram_counts(samples, edges)
        empirical, distance = density_vs_reference(counts, len(samples), edges,
                                                   np.array([0.2, 0.5]))
        assert counts.tolist() == [1, 2]
        assert empirical.tolist() == [0.2, 0.4]
        assert distance == pytest.approx(0.1, abs=1e-15)

    def test_empty_sample_rejected(self):
        counts = histogram_counts([], gof.EDGES)
        with pytest.raises(ValueError, match="non-empty"):
            density_vs_reference(counts, 0, gof.EDGES, np.zeros(40))

    def test_counts_of_parts_add_up_to_the_whole(self):
        # what a stream of chunks relies on: ragged parts, edge values and
        # out-of-window values among them
        rng = np.random.default_rng(11)
        samples = rng.normal(0.0, 2.0, size=10_001)
        samples[::53] = rng.choice(mh.EDGES, size=samples[::53].size)
        whole = histogram_counts(samples, mh.EDGES)
        parts = sum(histogram_counts(part, mh.EDGES)
                    for part in np.split(samples, [1, 4096, 4097, 9000]))
        assert whole.dtype == np.int64
        assert np.array_equal(parts, whole)
        assert np.array_equal(whole, np.histogram(samples, 40, (-3.0, 3.0))[0])
        assert np.array_equal(histogram_counts([], mh.EDGES), np.zeros(40))

    def test_density_of_counts_is_the_histogram_of_samples(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(10.0, 6.0, size=777)
        reference = rng.uniform(0.0, 0.1, size=40)
        counts = histogram_counts(samples, gof.EDGES)
        empirical, distance = density_vs_reference(counts, samples.size,
                                                   gof.EDGES, reference)
        # some samples fall outside [0, 20]: they count in the denominator
        whole = np.histogram(samples, 40, (0.0, 20.0))[0]
        assert whole.sum() < samples.size
        assert np.array_equal(empirical, whole / (samples.size * 0.5))
        assert distance == float(np.max(np.abs(empirical - reference)))
        with pytest.raises(ValueError, match="non-empty"):
            density_vs_reference(np.zeros(40, dtype=np.int64), 0, gof.EDGES,
                                 reference)


def test_bin_integrals_are_the_per_bin_quadratures():
    # bit for bit the integrate_interval value of each bin at tol 1e-9, on
    # both studies' windows
    for f, edges in ((target_g, mh.EDGES),
                     (lambda x: gof.chisq_density(x, 7), gof.EDGES)):
        expected = [integrate_interval(f, a, b, tol=1e-9).value
                    for a, b in zip(edges[:-1], edges[1:])]
        assert bin_integrals(f, edges).tolist() == expected


class TestSummarize:
    def test_simple(self):
        s = summarize([1, 2, 3])
        assert s.mean == pytest.approx(2.0)
        assert s.sd == pytest.approx(1.0)

    def test_hand_computed_sd(self):
        # sum of squared deviations from 5 is 20; sd = sqrt(20/3)
        assert summarize([2, 4, 6, 8]).sd == pytest.approx(2.5820, abs=1e-4)

    def test_constant_sample(self):
        s = summarize([7.0, 7.0, 7.0])
        assert s.sd == 0.0
        assert s.iqr == 0.0

    def test_iqr_matches_quartiles_exactly(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=101)
        s = summarize(x)
        q1, q3 = quantile_type7(x, (0.25, 0.75))
        assert s.iqr == q3 - q1
        assert s.q1 <= s.median <= s.q3

    def test_sample_sorted_once(self, monkeypatch):
        sorts = []
        sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a, **kw: sorts.append(1)
                            or sort(a, **kw))
        summarize(np.arange(10.0))
        assert len(sorts) == 1

    def test_singleton_flagged(self):
        s = summarize([3.5])
        assert s.sd == 0.0

    def test_empty(self):
        with pytest.raises(ValueError):
            summarize([])
