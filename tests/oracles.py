"""Independent reference generators used to check the library's samplers.

These deliberately avoid statlab's own stream machinery (numpy's default
generator, or a Philox keyed here from the stated hash) so a bug cannot cancel
out of both sides of a comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np

from statlab.mh import unnormalized


def rejection_sample_target(n: int, seed: int, half_width: float = 3.5) -> np.ndarray:
    """Draw from the target density by uniform-envelope rejection.

    Mass outside [-half_width, half_width] is below exp(-140) and ignored.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(-half_width, half_width, 4001)
    gmax = max(unnormalized(y) for y in grid) * 1.001
    out = []
    while len(out) < n:
        ys = rng.uniform(-half_width, half_width, size=4 * n)
        us = rng.uniform(0.0, 1.0, size=4 * n)
        accepted = ys[us * gmax < np.vectorize(unnormalized)(ys)]
        out.extend(accepted.tolist())
    return np.array(out[:n])


def chisq_sample(n: int, df: int, seed: int) -> np.ndarray:
    """Exact chi-square draws: sums of df squared standard normals."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(size=(n, df))
    return (z * z).sum(axis=1)


def replicate_generator(
    root_seed: int, experiment_id: str, i: int
) -> np.random.Generator:
    """Replicate i's random numbers as the reproducibility contract states
    them: numpy's Philox keyed by the first 16 bytes, little-endian, of the
    SHA-256 digest of root_seed, experiment_id (UTF-8) and i, NUL-joined."""
    material = b"%d\x00%s\x00%d" % (root_seed, experiment_id.encode("utf-8"), i)
    key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
