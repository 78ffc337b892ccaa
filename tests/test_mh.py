import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from oracles import rejection_sample_target, replicate_generator
from statlab import mh
from statlab.mh import (
    ChainResult,
    MhConfig,
    binned_true_density,
    iter_chain,
    log_unnormalized,
    run_chain,
    unnormalized,
)
from statlab.numerics import density_vs_reference, histogram_counts


def acceptance_prob(x: float, y: float) -> float:
    """min{1, g(y)/g(x)} -- the proposal is symmetric, so its terms cancel."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("x and y must be finite")
    return min(1.0, math.exp(min(0.0, log_unnormalized(y) - log_unnormalized(x))))


def proposal(x: float, draws: np.random.Generator, sd: float = 1.0) -> float:
    """x plus a normal step made of one uniform by the inverse CDF."""
    return x + sd * float(ndtri(max(draws.random(), 1e-300)))


def chain_states(config: MhConfig, root_seed: int) -> np.ndarray:
    """Every kept state of the chain, joined from ``iter_chain``'s chunks."""
    return np.concatenate([states for states, _ in iter_chain(config, root_seed)])


def mh_step(x: float, draws: np.random.Generator,
            sd: float = 1.0) -> tuple[float, bool]:
    """One Metropolis-Hastings transition; consumes exactly two uniforms.

    The step rule that ``run_chain`` writes out in its loops, one call per
    step: the oracle it is checked against.
    """
    y = proposal(x, draws, sd)
    u = draws.random()
    log_alpha = log_unnormalized(y) - log_unnormalized(x)
    if math.log(max(u, 1e-300)) < log_alpha:
        return y, True
    return x, False


class TestNormalization:
    def test_constant_value(self):
        assert mh.normalizing_constant() == pytest.approx(1.0 / 6.809611, abs=1e-6)

    def test_density_integrates_to_one(self):
        from statlab.numerics import integrate_real_line

        total = integrate_real_line(mh.pdf, tol=1e-10)
        assert total.value == pytest.approx(1.0, abs=1e-8)

    def test_close_to_rounded_value(self):
        # the write-up rounds the constant to 0.15
        c = mh.normalizing_constant()
        assert abs(c - 0.15) / c < 0.03


class TestAcceptanceProb:
    def test_identity_is_one(self):
        for x in (-4.0, -0.3, 0.0, 1.7, 6.0):
            assert acceptance_prob(x, x) == 1.0

    def test_uphill_move_always_accepted(self):
        # g(1)/g(0) = 8/e > 1
        assert acceptance_prob(0.0, 1.0) == 1.0

    def test_downhill_ratio(self):
        assert acceptance_prob(1.0, 0.0) == pytest.approx(math.e / 8.0, rel=1e-12)

    def test_bounded_on_random_pairs(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-10, 10, size=1_000_000)
        y = rng.uniform(-10, 10, size=1_000_000)
        log_ratio = (3 * np.log1p(np.abs(y)) - y**4) - (
            3 * np.log1p(np.abs(x)) - x**4
        )
        alpha = np.exp(np.minimum(0.0, log_ratio))
        assert alpha.min() >= 0.0
        assert alpha.max() <= 1.0

    def test_reduced_equals_full_hastings_ratio(self):
        # includes the symmetric normal proposal terms explicitly
        rng = np.random.default_rng(3)
        x = rng.uniform(-6, 6, size=1_000_000)
        y = rng.uniform(-6, 6, size=1_000_000)
        log_q_yx = -0.5 * (x - y) ** 2
        log_q_xy = -0.5 * (y - x) ** 2
        log_full = (
            (3 * np.log1p(np.abs(y)) - y**4 + log_q_yx)
            - (3 * np.log1p(np.abs(x)) - x**4 + log_q_xy)
        )
        log_reduced = (3 * np.log1p(np.abs(y)) - y**4) - (
            3 * np.log1p(np.abs(x)) - x**4
        )
        full = np.exp(np.minimum(0.0, log_full))
        reduced = np.exp(np.minimum(0.0, log_reduced))
        assert np.max(np.abs(full - reduced)) < 1e-12

    def test_detailed_balance_spot_check(self):
        lhs = mh.pdf(0.0) * acceptance_prob(0.0, 1.0)
        rhs = mh.pdf(1.0) * acceptance_prob(1.0, 0.0)
        assert abs(lhs - rhs) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            acceptance_prob(math.nan, 0.0)


class TestMhStep:
    def test_consumes_two_draws_and_matches_manual_update(self):
        used = replicate_generator(99, "step", 0)
        shadow = replicate_generator(99, "step", 0)
        x = 0.5
        x_next, accepted = mh_step(x, used)
        y = proposal(x, shadow)
        u = shadow.random()
        alpha = min(1.0, math.exp(log_unnormalized(y) - log_unnormalized(x)))
        if u < alpha:
            assert accepted and x_next == y
        else:
            assert not accepted and x_next == x
        # both streams must now be aligned
        assert used.random() == shadow.random()

    def test_rejection_branch_keeps_state(self):
        # from a high-density point, far proposals are eventually rejected
        draws = replicate_generator(12, "reject", 0)
        saw_rejection = False
        x = 0.9
        for _ in range(200):
            x_next, accepted = mh_step(x, draws)
            if not accepted:
                assert x_next == x
                saw_rejection = True
            x = x_next
        assert saw_rejection


@pytest.fixture(scope="module")
def default_chain():
    return run_chain(MhConfig(), root_seed=20070420)


@pytest.fixture(scope="module")
def default_samples():
    return chain_states(MhConfig(), root_seed=20070420)


class TestRunChain:
    def test_sample_count_and_finiteness(self, default_samples):
        assert default_samples.shape == (100_000,)
        assert np.all(np.isfinite(default_samples))

    def test_mean_near_zero(self, default_samples):
        assert abs(default_samples.mean()) < 0.05

    def test_variance_matches_quadrature(self, default_samples):
        target_var = mh.second_moment()
        assert default_samples.var() == pytest.approx(target_var, rel=0.10)

    def test_acceptance_rate_band(self, default_chain):
        # pilot-run regression band, not an external reference
        assert 0.2 < default_chain.acceptance_rate < 0.8

    def test_symmetry_of_output(self, default_samples):
        assert abs((default_samples > 0).mean() - 0.5) < 0.02

    def test_seed_determinism(self):
        config = MhConfig(burn_in=500, n_samples=500)
        a = run_chain(config, root_seed=5)
        b = run_chain(config, root_seed=5)
        assert isinstance(a, ChainResult)
        assert np.array_equal(chain_states(config, root_seed=5),
                              chain_states(config, root_seed=5))
        assert a.acceptance_rate == b.acceptance_rate
        assert np.array_equal(a.counts, b.counts)
        assert (a.mean, a.variance) == (b.mean, b.variance)

    def test_matches_stepwise_execution(self, monkeypatch):
        # (burn_in, n_samples, chunk): at the default chunk, a chain of one
        # chunk, then one whose burn-in ends 30 steps before the first chunk
        # edge and whose sampling ends 70 steps past it; chunks of 16 steps
        # put the burn-in / sampling boundary before, inside and on an edge.
        default = mh._CHUNK_STEPS
        cases = [(50, 100, default), (default - 30, 100, default),
                 (0, 100, 16), (5, 100, 16), (37, 100, 16), (48, 100, 16)]
        for sd in (0.3, 1.0, 2.5):
            for burn_in, n_samples, chunk in cases:
                monkeypatch.setattr(mh, "_CHUNK_STEPS", chunk)
                config = MhConfig(proposal_sd=sd, burn_in=burn_in,
                                  n_samples=n_samples)
                bulk = run_chain(config, root_seed=77)
                states = chain_states(config, root_seed=77)
                # every chain starts at 3.0 on the "mh-chain" stream
                draws = replicate_generator(77, "mh-chain", 0)
                x = 3.0
                samples, accepted = [], 0
                for i in range(config.burn_in + config.n_samples):
                    x, moved = mh_step(x, draws, sd=sd)
                    if i >= config.burn_in:
                        samples.append(x)
                        accepted += moved
                assert np.array_equal(states, np.array(samples)), (sd, burn_in)
                assert bulk.accepted == accepted, (sd, burn_in)
                assert bulk.acceptance_rate == accepted / config.n_samples

    def test_peak_memory_is_one_chunk(self):
        # the chain holds one chunk's draws and flat buffers of steps,
        # log-uniforms and kept states, with the chunk's histogram about
        # 300 KiB (lists of boxed floats took about 640 KiB); its 200 000
        # states would take 1.6 MB
        config = MhConfig(burn_in=10_000, n_samples=200_000)
        tracemalloc.start()
        try:
            run_chain(config, root_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19

    @pytest.mark.parametrize("burn_in, n_samples, chunk", [
        (1000, 20_000, None), (0, 1, None), (37, 100, 16), (48, 100, 16),
    ])
    def test_stream_reduces_to_the_joined_states(self, burn_in, n_samples,
                                                 chunk, monkeypatch):
        # counts exactly, mean and variance to rounding, whatever the chunks
        if chunk is not None:
            monkeypatch.setattr(mh, "_CHUNK_STEPS", chunk)
        config = MhConfig(burn_in=burn_in, n_samples=n_samples)
        result = run_chain(config, root_seed=8)
        samples = chain_states(config, root_seed=8)
        counts, _ = np.histogram(samples, bins=len(mh.EDGES) - 1,
                                 range=(mh.EDGES[0], mh.EDGES[-1]))
        assert result.counts.dtype == np.int64
        assert np.array_equal(result.counts, counts)
        assert abs(result.mean - samples.mean()) <= 1e-15
        assert math.isclose(result.variance, samples.var(), rel_tol=1e-14)

    def test_burn_in_chunks_yield_nothing(self, monkeypatch):
        # 40 burn-in steps in chunks of 16: the first two chunks keep nothing
        monkeypatch.setattr(mh, "_CHUNK_STEPS", 16)
        config = MhConfig(burn_in=40, n_samples=30)
        sizes = [len(states) for states, _ in iter_chain(config, root_seed=2)]
        assert sizes == [8, 16, 6]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MhConfig(proposal_sd=0.0)
        with pytest.raises(ValueError):
            MhConfig(n_samples=0)
        for sd in (math.inf, math.nan, 1.01 * mh.MAX_PROPOSAL_SD):
            with pytest.raises(ValueError):
                MhConfig(proposal_sd=sd)

    def test_widest_proposal_stays_finite(self):
        # the largest step, from the clamped uniform, keeps y**4 finite
        assert math.isfinite(log_unnormalized(mh.MAX_PROPOSAL_SD * ndtri(1e-300)))
        config = MhConfig(proposal_sd=mh.MAX_PROPOSAL_SD, burn_in=0, n_samples=1000)
        assert np.all(np.isfinite(chain_states(config, root_seed=3)))


def density_distance(samples: np.ndarray) -> float:
    """Sup distance of the samples' histogram on ``mh.EDGES`` from the
    bin-averaged target, as ``MhConfig.run`` computes it from the counts."""
    reference = binned_true_density(mh.EDGES)
    counts = histogram_counts(samples, mh.EDGES)
    return density_vs_reference(counts, len(samples), mh.EDGES, reference)[1]


class TestDensityDistance:
    def test_mh_samples_close(self, default_samples):
        assert density_distance(default_samples) < 0.02

    def test_rejection_oracle_close(self):
        samples = rejection_sample_target(100_000, seed=314)
        assert density_distance(samples) < 0.02

    def test_detects_wrong_distribution(self):
        rng = np.random.default_rng(6)
        wrong = rng.normal(0.0, 0.1, size=100_000)
        assert density_distance(wrong) > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            density_distance(np.array([]))


def test_log_unnormalized_matches_direct_form():
    for y in (-2.5, -1.0, 0.0, 0.3, 2.0):
        assert math.exp(log_unnormalized(y)) == pytest.approx(
            unnormalized(y), rel=1e-12
        )
