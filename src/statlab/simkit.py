"""Reproducible random streams and replicated-experiment harnesses.

Every simulation replicate owns a private substream keyed by
(root_seed, experiment_id, replicate_index), so results are identical no
matter how replicates are scheduled or batched, or how many workers run them.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.special import ndtri

from .numerics import SummaryStats, summarize


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


@dataclass(frozen=True)
class StudyResult:
    experiment_id: str
    root_seed: int
    n_reps: int
    outputs: Mapping[str, np.ndarray]
    summary: Mapping[str, SummaryStats] = field(default_factory=dict)


class ReplicateError(RuntimeError):
    def __init__(self, replicate_index: int, cause: BaseException):
        super().__init__(f"replicate {replicate_index} failed: {cause!r}")
        self.replicate_index = replicate_index


def run_replicates(
    n_reps: int,
    experiment_id: str,
    root_seed: int,
    task: Callable[[RngStream, int], float | Mapping[str, float]],
    n_workers: int = 1,
) -> StudyResult:
    """Run ``task`` once per replicate, each on its own stream.

    ``task(stream, i)`` returns a scalar or a mapping of named scalars.
    Outputs are assembled in replicate order, so the result is identical for
    any ``n_workers``.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")

    def one(i: int):
        try:
            return task(make_stream(root_seed, experiment_id, i), i)
        except Exception as exc:
            raise ReplicateError(i, exc) from exc

    if n_workers <= 1:
        raws = [one(i) for i in range(n_reps)]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            raws = list(pool.map(one, range(n_reps)))

    if isinstance(raws[0], Mapping):
        outputs = {
            name: np.array([r[name] for r in raws], dtype=float)
            for name in raws[0]
        }
    else:
        outputs = {"value": np.array(raws, dtype=float)}
    summary = {name: summarize(vec) for name, vec in outputs.items()}
    return StudyResult(
        experiment_id=experiment_id,
        root_seed=int(root_seed),
        n_reps=n_reps,
        outputs=outputs,
        summary=summary,
    )


def run_replicates_batched(
    n_reps: int,
    experiment_id: str,
    root_seed: int,
    n_draws: int,
    task: Callable[[np.ndarray], np.ndarray | Mapping[str, np.ndarray]],
) -> StudyResult:
    """Run ``task`` once per block of replicates, on their streams' first draws.

    ``task(block)`` gets a ``(reps, n_draws)`` array of uniforms on [0, 1)
    whose rows are consecutive replicates' private substreams: row ``i`` of
    the blocks taken in order is, bit for bit,
    ``make_stream(root_seed, experiment_id, i).raw(n_draws)``.  It returns one
    value per row, collected under ``outputs["value"]``, or a mapping of named
    arrays of one value per row, collected under their names.

    Each row is drawn by re-keying one Philox generator to the replicate's key
    with its counter and buffer zeroed, which is how a fresh stream starts, so
    no per-replicate generator is built.  Blocks hold at most
    ``_BLOCK_VALUES`` uniforms and are run in order, so the output does not
    depend on the block size.  ``summary`` is left empty.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    size = max(1, _BLOCK_VALUES // n_draws)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    parts: dict[str, list[np.ndarray]] = {}
    for start in range(0, n_reps, size):
        block = np.empty((min(size, n_reps - start), n_draws))
        for r in range(len(block)):
            key = _philox_key(root_seed, experiment_id, start + r)
            fresh["state"]["key"] = (key & _WORD, key >> 64)
            bitgen.state = fresh
            gen.random(out=block[r])
        out = task(block)
        if not isinstance(out, Mapping):
            out = {"value": out}
        if parts and out.keys() != parts.keys():
            raise ValueError(
                f"task outputs {sorted(out)} differ from the first block's "
                f"{sorted(parts)}"
            )
        for name, values in out.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (len(block),):
                raise ValueError(
                    f"task output {name!r} has shape {values.shape}, "
                    f"expected ({len(block)},)"
                )
            parts.setdefault(name, []).append(values)
    return StudyResult(
        experiment_id=experiment_id,
        root_seed=int(root_seed),
        n_reps=n_reps,
        outputs={name: np.concatenate(vecs) for name, vecs in parts.items()},
    )
