"""Reproducible random streams and the replicate engine.

Every simulation replicate owns a private substream keyed by
(root_seed, experiment_id, replicate_index), so results are identical no
matter how replicates are batched or which thread runs them.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor

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


def _block_keys(
    root_seed: int, experiment_id: str, start: int, rows: int
) -> np.ndarray:
    """``_philox_key`` of replicates ``start .. start + rows - 1``, as words.

    Row ``r`` holds the key's low and high 64-bit words.  The coordinates'
    common prefix is hashed once and each replicate index is hashed onto a
    copy of it, which gives the same digests for less work per row.
    """
    prefix = hashlib.sha256(
        b"%d\x00%s\x00" % (root_seed, experiment_id.encode("utf-8"))
    )
    digests = []
    for i in range(start, start + rows):
        h = prefix.copy()
        h.update(b"%d" % i)
        digests.append(h.digest()[:16])
    return np.frombuffer(b"".join(digests), dtype="<u8").reshape(rows, 2)


# The most words one block of a batched task may hold (a 128 KiB uint64
# block), so memory stays bounded.
_BLOCK_VALUES = 1 << 14
# Consecutive rows one thread draws per pool task when a row is wider than a
# block: enough that handing out tasks costs little next to drawing, few
# enough that the two threads finish close together.
_RUN_ROWS = 64
# The widest row drawn by the array Philox rather than by re-keying numpy's;
# run_replicates_batched's docstring gives the measured crossover.
_SHORT_ROW_DRAWS = 64

_LOW = 0xFFFFFFFF
# Philox4x64-10's multipliers and key increments (Salmon et al., SC11), as in
# numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of each 128-bit product ``a * m``."""
    a_lo, a_hi = a & _LOW, a >> 32
    m_lo, m_hi = np.uint64(m & _LOW), np.uint64(m >> 32)
    t = a_hi * m_lo + ((a_lo * m_lo) >> 32)
    w = (t & _LOW) + a_lo * m_hi
    return a_hi * m_hi + (t >> 32) + (w >> 32), a * np.uint64(m)


def _philox_words(keys: np.ndarray, n: int) -> np.ndarray:
    """Row ``r`` is ``Philox(key).random_raw(n)`` for the key words ``keys[r]``.

    numpy's Philox4x64-10 run as array arithmetic over all rows at once: the
    counter starts at 1 and each counter gives four words in order.  The
    counter's three upper words stay 0 for every counter a row reaches, so the
    first rounds broadcast over rows or counters alone.
    """
    rows, counters = len(keys), -(-n // 4)
    k0, k1 = keys[:, :1].copy(), keys[:, 1:].copy()
    x0 = np.arange(1, counters + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros(1, dtype=np.uint64)
    for r in range(10):
        if r:
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack((x0, x1, x2, x3), axis=-1).reshape(rows, 4 * counters)
    return words[:, :n]


def uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from Philox words, as numpy's ``Generator.random``.

    A word ``w`` becomes ``(w >> 11) * 2**-53``, its top 53 bits scaled, so
    ``uniforms(Philox(key).random_raw(n))`` is, bit for bit,
    ``Generator(Philox(key)).random(n)``.
    """
    return (words >> 11) * 2.0**-53


def uniforms_below(words: np.ndarray, p: float) -> np.ndarray:
    """``uniforms(words) < p``, exactly, but compared on the words themselves.

    For p in [0, 1], ``p * 2**53`` is exact, so ``(w >> 11) * 2**-53 < p``
    holds exactly when ``(w >> 11) < ceil(p * 2**53)``, that is when ``w`` is
    below ``ceil(p * 2**53) * 2**11``.  At p = 1 that bound is 2**64, above
    every word.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    threshold = math.ceil(p * 2.0**53) << 11
    if threshold >> 64:
        return np.ones(np.shape(words), dtype=bool)
    return words < np.uint64(threshold)


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


def _as_values(out, rows: int, names=None) -> dict[str, np.ndarray]:
    """A task's output for ``rows`` rows as float arrays by name.

    A plain array is named ``"value"``.  Raises ValueError unless every array
    holds one value per row and, when ``names`` is given, the names are those.
    """
    if not isinstance(out, Mapping):
        out = {"value": out}
    if names is not None and out.keys() != names:
        raise ValueError(
            f"task outputs {sorted(out)} differ from the first block's "
            f"{sorted(names)}"
        )
    values = {}
    for name, v in out.items():
        values[name] = np.asarray(v, dtype=float)
        if values[name].shape != (rows,):
            raise ValueError(
                f"task output {name!r} has shape {values[name].shape}, "
                f"expected ({rows},)"
            )
    return values


def run_replicates_batched(
    n_reps: int,
    experiment_id: str,
    root_seed: int,
    n_draws: int,
    task: Callable[[np.ndarray], np.ndarray | Mapping[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Run ``task`` once per block of replicates, on their streams' first words.

    ``task(block)`` gets a ``(reps, n_draws)`` uint64 array of raw Philox
    words whose rows are consecutive replicates' private substreams: row ``i``
    of the blocks taken in order is, bit for bit, the words behind
    ``make_stream(root_seed, experiment_id, i).raw(n_draws)``, which
    ``uniforms`` turns into those uniforms.  A task that needs no uniforms,
    such as a Bernoulli comparison, can work on the words themselves.  It
    returns one value per row, or a mapping of named arrays of one value per
    row.  The result maps each name (``"value"`` for a plain array) to the
    values of all replicates, in replicate order.

    Blocks hold at most ``_BLOCK_VALUES`` words, no per-replicate generator
    is built, and every block's or run's keys come from one hashed prefix
    (``_block_keys``).  The width of a row picks one of three ways to draw:

    - Short rows, at most ``_SHORT_ROW_DRAWS`` draws, run serially, and each
      block is drawn whole by one array Philox4x64-10 (``_philox_words``), so
      no row pays numpy's per-call overhead.
    - Wider rows that still fit several to a block run serially, and each
      row is drawn by ``random_raw`` from one Philox re-keyed to the
      replicate's key with its counter and buffer zeroed, which is how a
      fresh stream starts.  The array Philox costs about 11 times numpy's per
      word (67 against 5.9 ns), which the per-row overhead it saves no longer
      repays here.  On a 2-vCPU host, 10 000 rows with a trivial task took,
      array against re-keyed, 3.0 against 7.9 us per row at 16 draws, 5.5 us
      either way at 64, and 10.6 against 9.6 us at 100.
    - A row alone larger than a block is a block of one row.  Such rows spend
      most of their time drawing, which numpy does with the GIL released, so
      two threads run them: each takes runs of ``_RUN_ROWS`` consecutive
      replicates and draws every row of a run afresh, re-keyed as above, with
      its own Philox, and hands back one output per run.  ``task`` must be
      safe to call from both threads at once.  After an error, no run still
      queued starts.

    The output depends on neither the path, the block size, the run length
    nor the threads.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    size = max(1, _BLOCK_VALUES // n_draws)
    local = threading.local()
    failed = threading.Event()

    def draw(lo: int, hi: int) -> np.ndarray:
        """The first ``n_draws`` words of the stream keyed by words lo, hi."""
        if not hasattr(local, "philox"):  # a re-keyed Philox is single-owner
            local.philox = np.random.Philox(key=0)
            local.fresh = local.philox.state
        local.fresh["state"]["key"] = (lo, hi)
        local.philox.state = local.fresh
        return local.philox.random_raw(n_draws)

    def run_block(start: int):
        rows = min(size, n_reps - start)
        keys = _block_keys(root_seed, experiment_id, start, rows)
        if n_draws <= _SHORT_ROW_DRAWS:
            block = _philox_words(keys, n_draws)
        else:
            block = np.stack([draw(lo, hi) for lo, hi in keys.tolist()])
        return rows, task(block)

    def run_rows(start: int):
        if failed.is_set():  # an earlier run failed; the caller never reads this
            return None
        rows = min(_RUN_ROWS, n_reps - start)
        outs: list[dict[str, np.ndarray]] = []
        try:
            for lo, hi in _block_keys(root_seed, experiment_id, start, rows).tolist():
                out = task(draw(lo, hi)[None])
                outs.append(_as_values(out, 1, outs[0].keys() if outs else None))
        except BaseException:
            failed.set()
            raise
        return rows, {name: np.concatenate([o[name] for o in outs]) for name in outs[0]}

    parts: dict[str, list[np.ndarray]] = {}
    pool = ThreadPoolExecutor(2)
    try:
        if size > 1:
            blocks = map(run_block, range(0, n_reps, size))
        else:
            blocks = pool.map(run_rows, range(0, n_reps, _RUN_ROWS))
        for rows, out in blocks:
            out = _as_values(out, rows, parts.keys() if parts else None)
            for name, values in out.items():
                parts.setdefault(name, []).append(values)
    finally:
        failed.set()
        pool.shutdown(cancel_futures=True)  # after an error, skip queued runs
    return {name: np.concatenate(vecs) for name, vecs in parts.items()}
