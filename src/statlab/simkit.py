"""Reproducible random streams and the replicate engine.

Every simulation replicate owns a private substream keyed by
(root_seed, experiment_id, replicate_index), so results are identical no
matter how replicates are batched or which thread runs them.
"""

from __future__ import annotations

import hashlib
import itertools
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
# Consecutive rows one thread draws per pool task when a row is wider than a
# block: enough that handing out tasks costs little next to drawing, few
# enough that the two threads finish close together.
_RUN_ROWS = 64


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
    ``_BLOCK_VALUES`` uniforms and run serially.  A row alone larger than that
    is a block of one row, and such rows spend most of their time drawing,
    which numpy does with the GIL released, so two threads run them: each
    takes runs of ``_RUN_ROWS`` consecutive replicates and draws every row of
    a run into the one ``(1, n_draws)`` row it keeps, with its own generator.
    The row is overwritten by the next draw, so each output is copied out
    first, and ``task`` must be safe to call from both threads at once.  After
    an error, no run still queued starts.  The output depends on neither the
    block size, the run length nor the threads.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    size = max(1, _BLOCK_VALUES // n_draws)
    local = threading.local()
    failed = threading.Event()

    def fill(block: np.ndarray, start: int) -> None:
        """Draw replicates ``start``, ``start + 1``, ... into block's rows."""
        if not hasattr(local, "gen"):  # a re-keyed Philox is single-owner
            local.gen = np.random.Generator(np.random.Philox(key=0))
            local.fresh = local.gen.bit_generator.state
        for r in range(len(block)):
            key = _philox_key(root_seed, experiment_id, start + r)
            local.fresh["state"]["key"] = (key & _WORD, key >> 64)
            local.gen.bit_generator.state = local.fresh
            local.gen.random(out=block[r])

    def run_block(start: int):
        block = np.empty((min(size, n_reps - start), n_draws))
        fill(block, start)
        return len(block), task(block)

    def run_rows(start: int):
        outs = []
        if failed.is_set():  # an earlier run failed; the caller never reads this
            return outs
        if not hasattr(local, "row"):
            local.row = np.empty((1, n_draws))
        try:
            for i in range(start, min(start + _RUN_ROWS, n_reps)):
                fill(local.row, i)
                out = task(local.row)
                if isinstance(out, Mapping):
                    out = {name: np.array(v, dtype=float) for name, v in out.items()}
                else:
                    out = np.array(out, dtype=float)
                outs.append((1, out))
        except BaseException:
            failed.set()
            raise
        return outs

    parts: dict[str, list[np.ndarray]] = {}
    pool = ThreadPoolExecutor(2)
    try:
        if size > 1:
            blocks = map(run_block, range(0, n_reps, size))
        else:
            runs = pool.map(run_rows, range(0, n_reps, _RUN_ROWS))
            blocks = itertools.chain.from_iterable(runs)
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
        failed.set()
        pool.shutdown(cancel_futures=True)  # after an error, skip queued runs
    return {name: np.concatenate(vecs) for name, vecs in parts.items()}
