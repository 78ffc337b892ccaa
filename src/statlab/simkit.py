"""Reproducible random streams and the replicate engine.

Every simulation replicate owns a private substream, ``stream(root_seed,
experiment_id, replicate_index)``, so results are identical no matter how
replicates are batched or whether the calling thread or its one helper
thread runs them.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections.abc import Callable

import numpy as np
from scipy.special import ndtri


def _block_keys(
    root_seed: int, experiment_id: str, start: int, rows: int
) -> np.ndarray:
    """Philox keys of replicates ``start .. start + rows - 1``, as words.

    Replicate ``i``'s 128-bit key is the first 16 bytes, little-endian, of
    the SHA-256 digest of root_seed and i in decimal and experiment_id in
    UTF-8, joined by NUL bytes; row ``r`` holds its low and high 64-bit words.
    The coordinates' common prefix is hashed once and each replicate index is
    hashed onto a copy of it.
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


def stream(
    root_seed: int, experiment_id: str, replicate_index: int
) -> np.random.Philox:
    """Replicate ``replicate_index``'s Philox4x64-10, keyed by ``_block_keys``.

    The one definition of a replicate's random numbers: the replicate
    engine's row ``i`` is ``stream(root_seed, experiment_id, i)
    .random_raw(n_draws)``.  Single-owner: not safe to share across threads.
    """
    if replicate_index < 0:
        raise ValueError("replicate_index must be non-negative")
    return np.random.Philox(
        key=_block_keys(root_seed, experiment_id, replicate_index, 1)[0])


# The most replicates a study may run.  The engine returns n_reps floats per
# output, and gof and estimator write a table row per replicate, size and
# estimator (some 25 bytes), so each size adds at most about 50 MB of table.
MAX_REPS = 10**6
# The widest replicate row: a pooling population, or a gof or estimator
# sample size or gof bin count.  A row is that many 8-byte words or floats
# (80 MB at the bound), and the calling thread and its wide-row helper each
# hold one.
MAX_ROW_DRAWS = 10**7

# The most words one block of a batched task may hold (a 128 KiB uint64
# block), so memory stays bounded.
_BLOCK_VALUES = 1 << 14
# Consecutive rows one worker, the calling thread or its helper, draws per
# span when a row is wider than a block: enough that handing out spans costs
# little next to drawing, few enough that the two finish close together.
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


def normals_from_uniforms(
    u: np.ndarray, mean: float = 0.0, sd: float = 1.0
) -> np.ndarray:
    """Normal draws from uniforms on [0, 1) by the inverse CDF, one per uniform."""
    # a uniform can be exactly 0.0; clamp so ndtri stays finite
    return mean + sd * ndtri(np.maximum(u, 1e-300))


def run_replicates_batched(
    n_reps: int,
    experiment_id: str,
    root_seed: int,
    n_draws: int,
    task: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Run ``task`` once per block of replicates, on their streams' first words.

    ``task(block)`` gets a ``(reps, n_draws)`` uint64 array of raw Philox
    words whose rows are consecutive replicates' private substreams: row ``i``
    of the blocks taken in order is, bit for bit,
    ``stream(root_seed, experiment_id, i).random_raw(n_draws)``, which
    ``uniforms`` turns into uniforms.  A task that needs no uniforms,
    such as a Bernoulli comparison, can work on the words themselves.  It
    returns one float array whose first axis is the block's rows, of shape
    ``(reps,)`` or ``(reps, m)``, and the result is those arrays concatenated,
    in replicate order.  A task output with another first axis is a
    ValueError.

    One loop, ``run``, keys a span of rows from one hashed prefix
    (``_block_keys``), then draws each block of it (at most ``_BLOCK_VALUES``
    words), calls ``task`` and checks the output; no per-replicate generator
    is built.  A serial span is one block; only a threaded span holds several.
    The width of a row picks one of three ways to draw, and the spans run
    serially for the first two, on the calling thread and one helper thread
    for the third:

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
    - A row alone larger than a block is a block of one row, drawn re-keyed
      as above and not copied again.  Such rows spend most of their time
      drawing, which numpy does with the GIL released, so the calling thread
      and one helper thread, each with its own Philox, take the next span
      of ``_RUN_ROWS`` consecutive rows whenever free.  ``task`` must be safe
      to call from both at once.  After an error in either, no further span starts,
      and the helper has ended before the first error is raised.

    The output depends on neither the path, the block size, the span length
    nor the thread that runs a span.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    size = max(1, _BLOCK_VALUES // n_draws)
    span = size if size > 1 else _RUN_ROWS
    local = threading.local()

    def draw(keys: np.ndarray) -> np.ndarray:
        """The first ``n_draws`` words of the streams keyed by ``keys``."""
        if n_draws <= _SHORT_ROW_DRAWS:
            return _philox_words(keys, n_draws)
        if not hasattr(local, "philox"):  # a re-keyed Philox is single-owner
            local.philox = np.random.Philox(key=0)
            local.fresh = local.philox.state
        rows = []
        for key in keys.tolist():
            local.fresh["state"]["key"] = key
            local.philox.state = local.fresh
            rows.append(local.philox.random_raw(n_draws))
        return rows[0][None] if len(rows) == 1 else np.stack(rows)

    def run(start: int) -> np.ndarray:
        keys = _block_keys(root_seed, experiment_id, start,
                           min(span, n_reps - start))
        outs = []
        for i in range(0, len(keys), size):
            part = keys[i:i + size]  # no name keeps a block past its task
            out = np.asarray(task(draw(part)), dtype=float)
            if out.shape[:1] != (len(part),):
                raise ValueError(f"task output has shape {out.shape}, "
                                 f"expected {len(part)} rows")
            outs.append(out)
        return np.concatenate(outs)

    starts = iter(range(0, n_reps, span))
    if size > 1:
        return np.concatenate(list(map(run, starts)))
    parts, errors = {}, []

    def work() -> None:
        try:
            for start in starts:  # each span start goes to one worker
                if errors:  # after an error, no span starts
                    return
                parts[start] = run(start)
        except BaseException as error:
            errors.append(error)

    helper = threading.Thread(target=work)
    helper.start()
    work()
    helper.join()
    if errors:
        raise errors[0]
    return np.concatenate([parts[start] for start in sorted(parts)])
