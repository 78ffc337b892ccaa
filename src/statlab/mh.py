"""Random-walk Metropolis-Hastings sampler for the density c*(1+|y|)^3*exp(-y^4).

The acceptance ratio is computed in log space: the y^4 terms overflow exp()
well before the density support is exhausted (the unnormalized density itself
underflows near |y| ~ 7).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .numerics import (bin_integrals, histogram_counts, histogram_overlay,
                       integrate_real_line)
from .simkit import normals_from_uniforms, stream


def log_unnormalized(y: float) -> float:
    """log of (1+|y|)^3 * exp(-y^4)."""
    return 3.0 * math.log1p(abs(y)) - y**4


def unnormalized(y: float) -> float:
    return math.exp(log_unnormalized(y))


@functools.cache
def normalizing_constant() -> float:
    """1/Z for the target (1+|y|)^3*exp(-y^4)/Z on the whole real line, with
    Z = 2 * integral of the unnormalized density over [0, inf)."""
    return 1.0 / integrate_real_line(unnormalized, tol=1e-10).value


def pdf(y: float) -> float:
    """The normalized target density at y."""
    return normalizing_constant() * unnormalized(y)


def second_moment() -> float:
    """Variance of the target (its mean is 0 by symmetry), by quadrature."""
    res = integrate_real_line(lambda y: y * y * unnormalized(y), tol=1e-10)
    return normalizing_constant() * res.value


# The widest proposal: a step is at most 37.05 sd (ndtri of the clamped
# uniform), so the chain's y**4 stays finite.
MAX_PROPOSAL_SD = 1e75
# The longest chain, burn-in included: it runs for about 40 s at the 2.5M
# steps per second of a 2-vCPU x86-64 host.
MAX_CHAIN_STEPS = 10**8


@dataclass(frozen=True)
class MhConfig:
    proposal_sd: float = 1.0
    burn_in: int = 100_000
    n_samples: int = 100_000

    def __post_init__(self):
        if not 0 < self.proposal_sd <= MAX_PROPOSAL_SD:
            raise ValueError(f"proposal_sd must lie in (0, {MAX_PROPOSAL_SD:g}], "
                             f"got {self.proposal_sd}")
        if not 0 <= self.burn_in < MAX_CHAIN_STEPS:
            raise ValueError(f"burn_in must lie in [0, {MAX_CHAIN_STEPS}), got "
                             f"{self.burn_in}")
        most = MAX_CHAIN_STEPS - self.burn_in
        if not 1 <= self.n_samples <= most:
            raise ValueError(f"n_samples must lie in [1, {most}] (the longest "
                             f"chain's {MAX_CHAIN_STEPS} steps less burn_in = "
                             f"{self.burn_in}), got {self.n_samples}")

    def run(self, root_seed: int):
        """The chain's tables, figures to draw, summary and warnings."""
        defaults = MhConfig()
        short = [f"{flag} {value} is below its default {default}"
                 for flag, value, default in (
                     ("--burn-in", self.burn_in, defaults.burn_in),
                     ("--samples", self.n_samples, defaults.n_samples))
                 if value < default]
        warnings = ([f"short chain: {' and '.join(short)}; results may be noisy"]
                    if short else [])

        result = run_chain(self, root_seed)
        # near 1, tiny steps are nearly all taken; near 0, long steps are
        # nearly all refused: either way the chain barely explores the target
        if not 0.05 <= result.acceptance_rate <= 0.95:
            warnings.append(
                f"acceptance rate {result.acceptance_rate:.4f} lies outside "
                f"[0.05, 0.95]: the chain mixes too slowly to stand for the "
                f"target; tune --proposal-sd")
        grid = np.linspace(EDGES[0], EDGES[-1], 201)
        density = [pdf(y) for y in grid]
        histogram, distance, chart = histogram_overlay(
            EDGES, result.counts, self.n_samples, binned_true_density(EDGES),
            "true_density_bin_avg", ("true density", list(grid), density),
            "Metropolis-Hastings samples vs true density", "y")
        tables = {"mh_histogram.csv": histogram,
                  "mh_true_density.csv": {"y": grid, "pdf": density}}
        figs = {"mh_density.svg": chart}

        summary = {
            "normalizing_constant": normalizing_constant(),
            "acceptance_rate": result.acceptance_rate,
            "sample_mean": result.mean,
            "sample_variance": result.variance,
            "target_variance_quadrature": second_moment(),
            "density_distance": distance,
        }
        return tables, figs, summary, warnings


# The window on which a chain's histogram is set beside the target: [-3, 3]
# in 40 bins.
EDGES = np.linspace(-3.0, 3.0, 41)
# Every chain starts here, in the target's tail, and draws from the stream of
# this experiment id.
INITIAL_X = 3.0
EXPERIMENT_ID = "mh-chain"


@dataclass(frozen=True)
class ChainResult:
    """The kept states' acceptances, counts on ``EDGES``, mean and variance."""
    config: MhConfig
    accepted: int
    acceptance_rate: float
    counts: np.ndarray = field(repr=False)
    mean: float
    variance: float


# Steps drawn at once.  A chunk's uniforms (64 KB), its flat float64 buffers
# of steps, log-uniforms and kept states (32 KB each), the arrays behind them
# and the chunk's histogram come to about 0.31 MB (tracemalloc's peak in
# run_chain), which bounds the chain's working set whatever its length.
_CHUNK_STEPS = 1 << 12


def iter_chain(config: MhConfig, root_seed: int) -> Iterator[tuple[np.ndarray, int]]:
    """Burn in, then yield the chain's kept states as a float64 array per
    chunk of ``_CHUNK_STEPS`` steps, with the moves accepted among them; a
    chunk of burn-in only yields nothing.

    The chain starts at ``INITIAL_X``.  Each step takes two uniforms of
    ``stream(root_seed, EXPERIMENT_ID, 0)`` (``Generator.random``), a
    proposal normal's and then an acceptance uniform, and moves to the
    proposal when the uniform's log is below the log density ratio.  The
    step rule is written out here alone, in a loop for burn-in and one for
    kept steps over a chunk's draws, which are drawn into one uniforms array
    and written into two flat ``array.array("d")`` buffers of steps and
    log-uniforms, all three allocated once per chain; the loops call no
    Python function per step.  A chunk's kept states are appended to such a
    buffer too and yielded as a float64 view of it.
    """
    draws = np.random.Generator(stream(root_seed, EXPERIMENT_ID, 0))
    sd = config.proposal_sd
    burn_in = config.burn_in
    total = burn_in + config.n_samples
    x = INITIAL_X
    log_gx = log_unnormalized(x)
    log1p = math.log1p
    us = np.empty(2 * _CHUNK_STEPS)
    dz, log_u = array("d", [0.0]) * _CHUNK_STEPS, array("d", [0.0]) * _CHUNK_STEPS
    dz_view, log_u_view = np.frombuffer(dz), np.frombuffer(log_u)
    for start in range(0, total, _CHUNK_STEPS):
        m = min(_CHUNK_STEPS, total - start)
        u = draws.random(out=us[:2 * m])
        dz_view[:m] = normals_from_uniforms(u[0::2], sd=sd)
        clamped = np.maximum(u[1::2], 1e-300, out=log_u_view[:m])
        np.log(clamped, out=clamped)
        split = min(max(burn_in - start, 0), m)
        for d, lu in zip(dz[:split], log_u[:split]):
            y = x + d
            log_gy = 3.0 * log1p(abs(y)) - y**4
            if lu < log_gy - log_gx:
                x, log_gx = y, log_gy
        kept, accepted = array("d"), 0
        keep = kept.append
        for d, lu in zip(dz[split:m], log_u[split:m]):
            y = x + d
            log_gy = 3.0 * log1p(abs(y)) - y**4
            if lu < log_gy - log_gx:
                x, log_gx = y, log_gy
                accepted += 1
            keep(x)
        if kept:
            yield np.frombuffer(kept), accepted


def run_chain(config: MhConfig, root_seed: int) -> ChainResult:
    """The chain of ``iter_chain``, reduced a chunk at a time: besides one
    chunk it keeps three floats per chunk (about 2 MB at ``MAX_CHAIN_STEPS``).
    The mean is the ``math.fsum`` of the chunks' sums over n; the variance
    merges the chunks' squared deviations by Chan, Golub & LeVeque's pairwise
    update, summed by ``math.fsum``."""
    counts = np.zeros(len(EDGES) - 1, dtype=np.int64)
    sums, squares, accepted, n, mean = [], [], 0, 0, 0.0
    for states, moved in iter_chain(config, root_seed):
        accepted += moved
        counts += histogram_counts(states, EDGES)
        k, total = len(states), float(states.sum())
        sums.append(total)
        d = states - total / k
        delta = total / k - mean
        n += k
        mean += delta * k / n
        # the chunk's own squared deviations, and what merging its mean adds
        squares += float(np.square(d, out=d).sum()), delta**2 * (n - k) * k / n
    return ChainResult(config=config, accepted=accepted,
                       acceptance_rate=accepted / n, counts=counts,
                       mean=math.fsum(sums) / n, variance=math.fsum(squares) / n)


def binned_true_density(edges: np.ndarray) -> np.ndarray:
    """Average of the normalized target over each histogram bin."""
    mass = bin_integrals(unnormalized, edges)
    return normalizing_constant() * mass / np.diff(edges)
