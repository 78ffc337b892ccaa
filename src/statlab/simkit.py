"""Reproducible random streams and the replicate engine.

Every simulation replicate owns a private substream keyed by
(root_seed, experiment_id, replicate_index), so results are identical no
matter how replicates are batched or which thread runs them.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping

import numpy as np
from scipy.special import ndtri


def _philox_key(root_seed: int, experiment_id: str, replicate_index: int) -> int:
    """Stable 128-bit key from the stream coordinates (SHA-256 based)."""
    material = b"%d\x00%s\x00%d" % (
        root_seed,
        experiment_id.encode("utf-8"),
        replicate_index,
    )
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:16], "little")


_WORD = (1 << 64) - 1  # Philox takes its 128-bit key as two little-endian words

# The most uniforms one block of a batched task may hold (a 128 KiB float64
# block), so memory stays bounded.
_BLOCK_VALUES = 1 << 14


class RngStream:
    """A counter-based (Philox) substream for one simulation replicate.

    Normal draws use the inverse-CDF transform of a single uniform, so every
    draw consumes exactly one underlying stream value regardless of its
    distribution; replicate streams therefore stay aligned across runs.
    Single-owner: not safe to share one instance across threads.
    """

    def __init__(self, root_seed: int, experiment_id: str, replicate_index: int):
        if replicate_index < 0:
            raise ValueError("replicate_index must be non-negative")
        self.root_seed = int(root_seed)
        self.experiment_id = experiment_id
        self.replicate_index = int(replicate_index)
        key = _philox_key(self.root_seed, experiment_id, self.replicate_index)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def raw(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1), the primitive every other draw is built from."""
        return self._gen.random(n)

    def uniform(self, a: float = 0.0, b: float = 1.0) -> float:
        return float(self.uniforms(1, a, b)[0])

    def uniforms(self, n: int, a: float = 0.0, b: float = 1.0) -> np.ndarray:
        if not a < b:
            raise ValueError("need a < b")
        return a + (b - a) * self.raw(n)

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        return float(self.normals(1, mean, sd)[0])

    def normals(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        if not sd > 0:
            raise ValueError("sd must be positive")
        return normals_from_uniforms(self.raw(n), mean, sd)

    def bernoulli(self, p: float) -> int:
        return int(self.bernoullis(1, p)[0])

    def bernoullis(self, n: int, p: float) -> np.ndarray:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        return (self.raw(n) < p).astype(np.int64)


def normals_from_uniforms(
    u: np.ndarray, mean: float = 0.0, sd: float = 1.0
) -> np.ndarray:
    """Normal draws from uniforms on [0, 1) by the inverse CDF, one per uniform."""
    # a uniform can be exactly 0.0; clamp so ndtri stays finite
    return mean + sd * ndtri(np.maximum(u, 1e-300))


def make_stream(root_seed: int, experiment_id: str, replicate_index: int) -> RngStream:
    return RngStream(root_seed, experiment_id, replicate_index)


def run_replicates_batched(
    n_reps: int,
    experiment_id: str,
    root_seed: int,
    n_draws: int,
    task: Callable[[np.ndarray], np.ndarray | Mapping[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Run ``task`` once per block of replicates, on their streams' first draws.

    ``task(block)`` gets a ``(reps, n_draws)`` array of uniforms on [0, 1)
    whose rows are consecutive replicates' private substreams: row ``i`` of
    the blocks taken in order is, bit for bit,
    ``make_stream(root_seed, experiment_id, i).raw(n_draws)``.  It returns one
    value per row, or a mapping of named arrays of one value per row.  The
    result maps each name (``"value"`` for a plain array) to the values of all
    replicates, in replicate order.

    Each row is drawn by re-keying a Philox generator to the replicate's key
    with its counter and buffer zeroed, which is how a fresh stream starts, so
    no per-replicate generator is built.  Blocks hold at most
    ``_BLOCK_VALUES`` uniforms, or one row when a row alone is larger.  Such
    blocks spend most of their time drawing, which numpy does with the GIL
    released, so two threads run them, each re-keying its own generator, and
    ``task`` must be safe to call from both at once; smaller blocks run
    serially.  The output depends on neither the block size nor the threads.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    size = max(1, _BLOCK_VALUES // n_draws)
    local = threading.local()

    def run_block(start: int):
        if not hasattr(local, "gen"):  # a re-keyed Philox is single-owner
            local.gen = np.random.Generator(np.random.Philox(key=0))
            local.fresh = local.gen.bit_generator.state
        block = np.empty((min(size, n_reps - start), n_draws))
        for r in range(len(block)):
            key = _philox_key(root_seed, experiment_id, start + r)
            local.fresh["state"]["key"] = (key & _WORD, key >> 64)
            local.gen.bit_generator.state = local.fresh
            local.gen.random(out=block[r])
        return len(block), task(block)

    parts: dict[str, list[np.ndarray]] = {}
    starts = range(0, n_reps, size)
    pool = ThreadPoolExecutor(2)
    try:
        blocks = pool.map(run_block, starts) if size == 1 else map(run_block, starts)
        for rows, out in blocks:
            if not isinstance(out, Mapping):
                out = {"value": out}
            if parts and out.keys() != parts.keys():
                raise ValueError(
                    f"task outputs {sorted(out)} differ from the first block's "
                    f"{sorted(parts)}"
                )
            for name, values in out.items():
                values = np.asarray(values, dtype=float)
                if values.shape != (rows,):
                    raise ValueError(
                        f"task output {name!r} has shape {values.shape}, "
                        f"expected ({rows},)"
                    )
                parts.setdefault(name, []).append(values)
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, skip queued blocks
    return {name: np.concatenate(vecs) for name, vecs in parts.items()}
