"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Empirical criteria are tolerance bands around analytic anchors; exact digits
are only required of analytic quantities.
"""

import math
import time

import numpy as np
import pytest

from statlab import gof, mh, pooling
from statlab.cli import main
from statlab.estimators import EstimatorStudyPlan, run_estimator_study
from statlab.numerics import (density_vs_reference, integrate_real_line,
                              solve_root, summarize)

SEED = 20070420


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_analytic_pooled_cost():
    pooling.expected_tests(10, 500, 0.05)  # warm up
    t0 = time.perf_counter()
    value = pooling.expected_tests(10, 500, 0.05)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 2506.3) <= 0.05 and elapsed < 1e-3
    _report(
        "criterion 1 (analytic pooled cost)",
        ok,
        f"expected_tests(10,500,0.05)={value:.4f} in 2506.3+-0.05, "
        f"{elapsed * 1e6:.0f}us",
    )


def test_criterion_02_optimal_pool_size():
    t0 = time.perf_counter()
    opt = pooling.optimal_pool_size_continuous(0.05)
    elapsed = time.perf_counter() - t0
    root = solve_root(
        lambda k: 1.0 / k**2 + math.log(0.95) * 0.95**k, 2, 10, tol=1e-8
    )
    ok = (
        abs(opt.k - 5.022) <= 0.005
        and abs(opt.k - root) <= 2e-3
        and elapsed < 0.010
    )
    _report(
        "criterion 2 (optimal pool size)",
        ok,
        f"k*={opt.k:.5f} vs 5.022+-0.005, bisection {root:.5f} "
        f"(gap {abs(opt.k - root):.2e}), {elapsed * 1e3:.2f}ms",
    )


def test_criterion_03_savings_ratio():
    value = pooling.savings_ratio(5, 0.05)
    ok = abs(value - 2.35) <= 0.01
    _report(
        "criterion 3 (savings ratio)",
        ok,
        f"savings_ratio(5,0.05)={value:.4f} in 2.35+-0.01",
    )


def test_criterion_04_simulation_agreement():
    t0 = time.perf_counter()
    cost = pooling.simulate_pooling(5000, 10, 0.05, 10_000, root_seed=SEED)
    k_int, _ = pooling.optimal_pool_size_integer(5000, 0.05, [2, 4, 5, 8, 10])
    elapsed = time.perf_counter() - t0
    se = cost.sd / math.sqrt(10_000)
    ok = abs(cost.mean - 2506.3) <= 3 * se and k_int == 5 and elapsed < 5
    _report(
        "criterion 4 (simulation/analytic agreement)",
        ok,
        f"mean={cost.mean:.2f} within 3SE={3 * se:.2f} of 2506.3, "
        f"integer search k={k_int}, {elapsed:.2f}s",
    )


def test_criterion_05_normalizing_constant():
    t0 = time.perf_counter()
    res = integrate_real_line(mh.unnormalized, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = abs(res.value - 6.809611) <= 1e-5 and elapsed < 0.1
    _report(
        "criterion 5 (normalizing constant)",
        ok,
        f"integral={res.value:.7f} in 6.809611+-1e-5, {elapsed * 1e3:.1f}ms",
    )


def test_criterion_06_mh_correctness():
    t0 = time.perf_counter()
    chain = mh.run_chain(mh.MhConfig(), root_seed=SEED)
    # the chain's streamed counts on mh.EDGES: 40 bins on [-3, 3]
    reference = mh.binned_true_density(mh.EDGES)
    distance = density_vs_reference(chain.counts, chain.config.n_samples,
                                    mh.EDGES, reference)[1]
    elapsed = time.perf_counter() - t0
    mean = chain.mean
    var = chain.variance
    target_var = mh.second_moment()
    ok = (
        abs(mean) <= 0.05
        and abs(var - target_var) <= 0.10 * target_var
        and distance < 0.02
        and elapsed < 30
    )
    _report(
        "criterion 6 (MH correctness)",
        ok,
        f"mean={mean:+.4f} (|.|<=0.05), var={var:.4f} vs {target_var:.4f} "
        f"(+-10%), distance={distance:.4f}<0.02, {elapsed:.1f}s",
    )


def test_criterion_07_acceptance_ratio_algebra():
    rng = np.random.default_rng(SEED)
    x = rng.uniform(-6, 6, size=1_000_000)
    y = rng.uniform(-6, 6, size=1_000_000)
    log_g = lambda v: 3 * np.log1p(np.abs(v)) - v**4
    log_q_yx = -0.5 * (x - y) ** 2
    log_q_xy = -0.5 * (y - x) ** 2
    full = np.exp(np.minimum(0.0, log_g(y) + log_q_yx - log_g(x) - log_q_xy))
    reduced = np.exp(np.minimum(0.0, log_g(y) - log_g(x)))
    gap = float(np.max(np.abs(full - reduced)))
    ok = gap < 1e-12
    _report(
        "criterion 7 (acceptance-ratio algebra)",
        ok,
        f"max |reduced - full| = {gap:.2e} over 1e6 pairs (< 1e-12)",
    )


def test_criterion_08_estimator_study():
    t0 = time.perf_counter()
    result = run_estimator_study(EstimatorStudyPlan(), root_seed=SEED)
    iqr = {
        (name, n): summarize(result[(name, n)]).iqr
        for name in ("iqr", "s")
        for n in (100, 400)
    }
    elapsed = time.perf_counter() - t0
    ratio = iqr[("iqr", 100)] / iqr[("iqr", 400)]
    ok = (
        abs(iqr[("iqr", 100)] - 0.50) <= 0.07
        and abs(iqr[("iqr", 400)] - 0.25) <= 0.07
        and abs(iqr[("s", 100)] - 0.30) <= 0.05
        and abs(iqr[("s", 400)] - 0.16) <= 0.05
        and iqr[("s", 100)] < iqr[("iqr", 100)]
        and iqr[("s", 400)] < iqr[("iqr", 400)]
        and 1.7 <= ratio <= 2.3
        and elapsed < 5
    )
    _report(
        "criterion 8 (estimator study)",
        ok,
        f"IQR-est spreads {iqr[('iqr', 100)]:.3f}/{iqr[('iqr', 400)]:.3f} "
        f"(0.50/0.25+-0.07), s spreads {iqr[('s', 100)]:.3f}/"
        f"{iqr[('s', 400)]:.3f} (0.30/0.16+-0.05), ratio={ratio:.2f} in "
        f"[1.7,2.3], {elapsed:.2f}s",
    )


def test_criterion_09_gof_simulation():
    t0 = time.perf_counter()
    result = gof.simulate_uniform_gof(gof.GofPlan(), root_seed=SEED)
    lattice_ok = bool(
        np.allclose(
            result[16] * 2,
            np.round(result[16] * 2),
            atol=1e-9,
        )
    )
    ordering_ok = True
    for seed in range(SEED, SEED + 10):
        r = gof.simulate_uniform_gof(gof.GofPlan(), root_seed=seed)
        d16 = gof.shape_distance(r[16], gof.GofPlan().bins - 1)
        d64 = gof.shape_distance(r[64], gof.GofPlan().bins - 1)
        if not d64 < d16:
            ordering_ok = False
    elapsed = time.perf_counter() - t0
    means = {n: float(v.mean()) for n, v in result.items()}
    ok = (
        abs(means[16] - 7.0) <= 0.2
        and abs(means[64] - 7.0) <= 0.2
        and lattice_ok
        and ordering_ok
        and elapsed < 10
    )
    _report(
        "criterion 9 (GOF simulation)",
        ok,
        f"means {means[16]:.3f}/{means[64]:.3f} (7+-0.2), "
        f"0.5-lattice={lattice_ok}, 10-seed ordering={ordering_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_reproducibility(tmp_path):
    outs = []
    for name, workers in (("first", 1), ("second", 6)):
        out = tmp_path / name
        code = main(
            ["gof", "--seed", "1", "--reps", "500", "--out", str(out),
             "--workers", str(workers)]
        )
        assert code == 0
        outs.append(out)
    tables = sorted(p.name for p in outs[0].glob("*.csv"))
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in tables
    )
    _report(
        "criterion 10 (reproducibility)",
        identical and len(tables) > 0,
        f"{len(tables)} result tables byte-identical across runs "
        "with 1 vs 6 workers",
    )
