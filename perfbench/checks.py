"""Correctness checks on the tables one statlab process wrote.

Three kinds, each counted as one check:
- digests: SHA-256 of the seeded simulation tables against the digests in
  reference.json, for the seeds recorded there (other seeds skip this kind);
- quadrature columns: bin-averaged reference densities against scipy, to a
  relative tolerance, since a change of quadrature may move the 10th digit;
- dual-track anchors: each simulation against its analytic answer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from functools import cache
from pathlib import Path

import numpy as np
from scipy import integrate, special

# The seeded simulation tables whose bytes must not change.
DIGESTED = {
    "gof": "gof_statistics.csv",
    "estimator": "estimator_distributions.csv",
    "pooling": "pooling_candidates.csv",
}
# Quadrature columns: far above the 10-digit table format, far below any real
# error; the floor covers bins where the density underflows towards 0.
REL_TOL = 1e-7
ABS_FLOOR = 1e-15
NORMALIZING_INTEGRAL = 6.809611


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out: Path, sub: str) -> dict:
    return json.loads((out / f"{sub}_summary.json").read_text())["summary"]


def _close(values, reference) -> tuple[bool, str]:
    values, reference = np.asarray(values, float), np.asarray(reference, float)
    diff = np.abs(values - reference)
    ok = bool(np.all(diff <= REL_TOL * np.abs(reference) + ABS_FLOOR))
    return ok, f"max abs err {diff.max():.2e}"


def _g(y: float) -> float:
    return (1.0 + abs(y)) ** 3 * math.exp(-(y ** 4))


@cache
def _mh_integral() -> float:
    half, _ = integrate.quad(_g, 0.0, math.inf, epsabs=0.0, epsrel=1e-13,
                             limit=200)
    return 2.0 * half


def _check_gof(out: Path):
    s = _summary(out, "gof")
    for n, mean in s["mean_statistic"].items():
        yield f"gof n={n} mean in 7+-0.2", abs(mean - 7.0) <= 0.2, f"{mean:.4f}"
    d = {int(n): v for n, v in s["shape_distance"].items()}
    small, large = min(d), max(d)
    yield (f"gof d{large} < d{small}", d[large] < d[small],
           f"{d[large]:.4f} vs {d[small]:.4f}")
    for n in d:
        rows = _rows(out / f"gof_overlay_n{n}.csv")
        lo = np.array([float(r["bin_lo"]) for r in rows])
        hi = np.array([float(r["bin_hi"]) for r in rows])
        ref = (special.chdtr(s["df"], hi) - special.chdtr(s["df"], lo)) / (hi - lo)
        yield (f"gof n={n} chi-square bin averages",
               *_close([float(r["chisq_density_bin_avg"]) for r in rows], ref))


def _check_estimator(out: Path):
    spread = _summary(out, "estimator")["iqr_of_distribution"]
    sizes = sorted({int(k.rpartition("_n")[2]) for k in spread})
    for n in sizes:
        a, b = spread[f"iqr_n{n}"], spread[f"s_n{n}"]
        yield f"estimator n={n} IQR spread > s spread", a > b, f"{a:.4f} vs {b:.4f}"


def _check_pooling(out: Path):
    s = _summary(out, "pooling")
    p, reps = s["p"], s["n_reps"]
    for r in _rows(out / "pooling_candidates.csv"):
        k, n = int(r["k"]), int(r["n_pools"])
        closed = n + k * n * (1.0 - (1.0 - p) ** k)
        analytic, mean = float(r["expected_tests_analytic"]), float(r["simulated_mean"])
        se = float(r["simulated_sd"]) / math.sqrt(reps)
        yield (f"pooling k={k} analytic = closed form",
               abs(analytic - closed) <= 1e-9 * closed, f"{analytic} vs {closed}")
        yield (f"pooling k={k} simulated mean within 3 SE",
               abs(mean - analytic) <= 3.0 * se,
               f"|{mean} - {analytic}| vs 3 SE = {3 * se:.3f}")


def _check_mh(out: Path):
    s = _summary(out, "mh")
    integral = 1.0 / s["normalizing_constant"]
    yield ("mh integral 6.809611+-1e-5",
           abs(integral - NORMALIZING_INTEGRAL) <= 1e-5, f"{integral:.7f}")
    yield "mh |mean| <= 0.05", abs(s["sample_mean"]) <= 0.05, f"{s['sample_mean']:+.4f}"
    var, target = s["sample_variance"], s["target_variance_quadrature"]
    yield ("mh variance within 10% of quadrature",
           abs(var - target) <= 0.10 * target, f"{var:.4f} vs {target:.4f}")
    yield ("mh density distance < 0.02", s["density_distance"] < 0.02,
           f"{s['density_distance']:.4f}")
    z = _mh_integral()
    rows = _rows(out / "mh_histogram.csv")
    ref = [integrate.quad(_g, float(r["bin_lo"]), float(r["bin_hi"]),
                          epsabs=0.0, epsrel=1e-13)[0]
           / z / (float(r["bin_hi"]) - float(r["bin_lo"])) for r in rows]
    yield ("mh true density bin averages",
           *_close([float(r["true_density_bin_avg"]) for r in rows], ref))
    rows = _rows(out / "mh_true_density.csv")
    yield ("mh true density pdf",
           *_close([float(r["pdf"]) for r in rows],
                   [_g(float(r["y"])) / z for r in rows]))


_ANCHORS = {
    "gof": _check_gof,
    "estimator": _check_estimator,
    "pooling": _check_pooling,
    "mh": _check_mh,
}


def check_outputs(out: Path, subcommands, digests: dict | None):
    """(name, ok, detail) for every check on one process's output directory.

    `digests` maps table name to reference SHA-256, or is None when the seed
    has no recorded reference.
    """
    results = []
    for sub in subcommands:
        table = DIGESTED.get(sub)
        try:
            if digests is not None and table is not None:
                got = digest(out / table)
                results.append((f"{table} digest", got == digests[table], got[:16]))
            results.extend(_ANCHORS[sub](out))
        except (OSError, KeyError, ValueError) as exc:
            results.append((f"{sub} outputs readable", False, repr(exc)))
    return results
