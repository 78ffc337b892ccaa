import itertools
import math
import sys
import time

import numpy as np
import pytest

from statlab import simkit
from statlab.simkit import make_stream, run_replicates_batched


class TestStreams:
    def test_same_key_same_draws(self):
        a = make_stream(42, "pool", 0).raw(100)
        b = make_stream(42, "pool", 0).raw(100)
        assert np.array_equal(a, b)

    def test_replicate_index_changes_sequence(self):
        a = make_stream(42, "pool", 0).raw(10)
        b = make_stream(42, "pool", 1).raw(10)
        assert a[0] != b[0]

    def test_root_seed_changes_sequence(self):
        a = make_stream(42, "pool", 0).raw(10)
        b = make_stream(43, "pool", 0).raw(10)
        assert not np.array_equal(a, b)

    def test_experiment_id_changes_sequence(self):
        a = make_stream(42, "pool", 0).raw(10)
        b = make_stream(42, "mh", 0).raw(10)
        assert not np.array_equal(a, b)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            make_stream(1, "x", -1)


class TestDraws:
    def test_bernoulli_degenerate(self):
        s = make_stream(7, "bern", 0)
        assert not s.bernoullis(200, 0.0).any()
        assert s.bernoullis(200, 1.0).all()

    def test_normal_moments(self):
        draws = make_stream(7, "norm", 0).normals(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std(ddof=1) - 1.0) < 0.02

    def test_normal_consumes_one_value_per_draw(self):
        a = make_stream(3, "align", 0)
        b = make_stream(3, "align", 0)
        a.normal()
        b.raw(1)
        assert a.uniform() == b.uniform()

    def test_uniform_ks_distance(self):
        u = np.sort(make_stream(11, "unif", 0).raw(100_000))
        n = u.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(ecdf_hi - u), np.max(u - ecdf_lo))
        assert ks < 0.006

    def test_parameter_validation(self):
        s = make_stream(1, "bad", 0)
        with pytest.raises(ValueError):
            s.uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            s.normal(0.0, -1.0)
        with pytest.raises(ValueError):
            s.bernoulli(1.5)

    def test_first_draw_cross_stream_correlation(self):
        firsts = np.array(
            [make_stream(5, "indep", i).uniform() for i in range(10_000)]
        )
        corr = np.corrcoef(firsts[:-1], firsts[1:])[0, 1]
        assert abs(corr) < 0.03


class TestUniformsBelow:
    @pytest.mark.parametrize("p", [
        0.0, 5e-324, 2.0**-53, 0.05, 0.2, 0.5, 1.0 - 2.0**-53, 1.0,
    ])
    def test_matches_the_uniforms(self, p):
        # the words either side of the threshold, the extreme words, and words
        # whose uniform is p itself or its neighbours
        threshold = math.ceil(p * 2.0**53) * 2**11
        near = [threshold - 1, threshold, 0, 2**64 - 1]
        for u in (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)):
            m = int(u * 2.0**53)
            near += [m << 11, (m << 11) + 2**11 - 1]
        words = np.array([w for w in near if 0 <= w < 2**64], dtype=np.uint64)
        words = np.concatenate(
            [words, np.random.Philox(key=7).random_raw(10_000)])
        assert np.array_equal(
            simkit.uniforms_below(words, p), simkit.uniforms(words) < p)

    def test_shape_and_range(self):
        words = np.zeros((3, 5), dtype=np.uint64)
        assert simkit.uniforms_below(words, 1.0).shape == (3, 5)
        assert not simkit.uniforms_below(words, 0.0).any()
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                simkit.uniforms_below(words, p)


SHORT = simkit._SHORT_ROW_DRAWS


class TestArrayPhilox:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, SHORT, SHORT + 1])
    def test_matches_numpy_philox(self, n):
        # keys with the high bit of both words set catch a signed shift or a
        # carry lost from the 32-bit halves of the multiply; all 64 bits of
        # every word are compared, not only the 53 a uniform keeps
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 2**63, size=(40, 2), dtype=np.uint64)
        keys |= np.uint64(1 << 63)
        rows = simkit._philox_words(keys, n)
        assert rows.shape == (40, n) and rows.dtype == np.uint64
        for row, (lo, hi) in zip(rows, keys.tolist()):
            key = lo | hi << 64
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(n))
            gen = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(simkit.uniforms(row), gen.random(n))

    @pytest.mark.parametrize("seed, experiment_id", [
        (0, "gof-n16"), (-7, "pool"), (2**64 + 5, "mh"), (3, "gøf→ñ"),
    ])
    def test_block_keys_are_the_stream_keys(self, seed, experiment_id):
        keys = simkit._block_keys(seed, experiment_id, 9, 5)
        assert keys.shape == (5, 2)
        for r, (lo, hi) in enumerate(keys.tolist()):
            assert lo | hi << 64 == simkit._philox_key(seed, experiment_id, 9 + r)

    @pytest.mark.parametrize("n_draws", [SHORT, SHORT + 1])
    def test_engine_rows_at_the_crossover(self, n_draws, monkeypatch):
        # either side of the crossover, blocks of 3 rows with a ragged last one
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 3 * n_draws + 1)
        seen = _blocks(8, n_draws)
        assert [len(b) for b in seen] == [3, 3, 2]
        _assert_stream_rows(np.concatenate(seen), 21, "blocks")


def _assert_stream_rows(rows, seed, experiment_id):
    """Row i of the words ``rows`` gives replicate i's stream uniforms."""
    assert rows.dtype == np.uint64
    for i, row in enumerate(rows):
        stream = make_stream(seed, experiment_id, i).raw(len(row))
        assert np.array_equal(simkit.uniforms(row), stream)


def _columns(block):
    """A task naming each column's uniforms, so the engine returns whole rows."""
    return {str(j): simkit.uniforms(block[:, j]) for j in range(block.shape[1])}


def _blocks(n_reps, n_draws):
    """Run the batched harness and return the blocks in the order the task saw them."""
    seen = []

    def task(block):
        seen.append(block.copy())
        return block[:, 0]

    run_replicates_batched(n_reps, "blocks", 21, n_draws, task)
    return seen


class TestRunReplicatesBatched:
    @pytest.mark.parametrize("n_draws", [1, 5, 16, 64, 100])
    def test_rows_are_the_replicate_streams(self, n_draws, monkeypatch):
        # row i of the blocks is make_stream(seed, id, i).raw(n) bit for bit,
        # on both sides of each block boundary; a change in numpy's Philox
        # state layout breaks this instead of silently shifting every table
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 320)
        size = 320 // n_draws
        n_reps = 2 * size + 3
        seen = _blocks(n_reps, n_draws)
        assert [len(b) for b in seen] == [size, size, 3]
        _assert_stream_rows(np.concatenate(seen), 21, "blocks")

    def test_block_size_does_not_change_rows(self, monkeypatch):
        whole = _blocks(60, 16)
        assert len(whole) == 1
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 7 * 16)
        small = _blocks(60, 16)
        assert [len(b) for b in small] == [7] * 8 + [4]
        assert np.array_equal(np.concatenate(small), whole[0])

    def test_block_memory_is_bounded(self):
        for n_draws in (1, 64, 5000, 20_000):
            seen = _blocks(40, n_draws)
            assert max(b.size for b in seen) <= max(n_draws, simkit._BLOCK_VALUES)
            assert sum(len(b) for b in seen) == 40

    def test_one_row_blocks_on_two_threads(self, monkeypatch):
        # rows wider than a block run one per block on two threads, each with
        # its own generator; outputs still come back in replicate order
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 8)
        res = run_replicates_batched(300, "wide", 4, 9, _columns)
        rows = np.column_stack([res[str(j)] for j in range(9)])
        for i in range(300):
            assert np.array_equal(rows[i], make_stream(4, "wide", i).raw(9))

    @pytest.mark.parametrize("run_rows", [1, 3, 64])
    def test_run_length_does_not_change_rows(self, run_rows, monkeypatch):
        # wide rows go to the threads in runs of consecutive replicates, each
        # thread re-keying the one Philox it keeps; 150 rows end partway
        # through a run of every length tried
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 8)
        monkeypatch.setattr(simkit, "_RUN_ROWS", run_rows)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a shared row
        try:
            named = run_replicates_batched(
                150, "runs", 6, 9,
                lambda block: {"first": simkit.uniforms(block[:, 0]),
                               "last": simkit.uniforms(block[:, -1])},
            )
            plain = run_replicates_batched(
                150, "runs", 6, 9, lambda block: simkit.uniforms(block[:, 1]))
        finally:
            sys.setswitchinterval(interval)
        for i in range(150):
            row = make_stream(6, "runs", i).raw(9)
            assert named["first"][i] == row[0]
            assert named["last"][i] == row[-1]
            assert plain["value"][i] == row[1]

    def test_wide_row_error_skips_queued_runs(self, monkeypatch):
        # run 0 holds its first row, so the main thread is still waiting on
        # it when run 1 fails on the other thread; that thread must then start
        # no queued run, and only run 0 goes on to its end
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 8)
        monkeypatch.setattr(simkit, "_RUN_ROWS", 4)
        replicate_of = {make_stream(0, "fail", i).raw(9)[0]: i for i in range(8)}
        calls = itertools.count(1)  # next() on a count is atomic under the GIL

        def task(block):
            next(calls)
            i = replicate_of.get(simkit.uniforms(block[0, 0]))
            if i == 0:
                time.sleep(0.1)
            if i == 4:
                raise RuntimeError("run 1 failed")
            return block[:, 0]

        with pytest.raises(RuntimeError, match="run 1 failed"):
            run_replicates_batched(400, "fail", 0, 9, task)
        assert next(calls) - 1 == 4 + 1

    def test_outputs_in_replicate_order(self, monkeypatch):
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 8 * 4)
        res = run_replicates_batched(
            50, "ord", 3, 4, lambda block: simkit.uniforms(block[:, 0]))
        assert res["value"].tolist() == [
            make_stream(3, "ord", i).raw(1)[0] for i in range(50)
        ]

    def test_named_outputs(self, monkeypatch):
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 4 * 3)
        res = run_replicates_batched(10, "named", 5, 3, _columns)
        assert list(res) == ["0", "1", "2"]
        rows = np.column_stack([res[name] for name in res])
        for i in range(10):
            assert np.array_equal(rows[i], make_stream(5, "named", i).raw(3))

    def test_named_output_checks(self, monkeypatch):
        with pytest.raises(ValueError, match="'b' has shape"):
            run_replicates_batched(
                4, "named", 0, 2, lambda block: {"a": block[:, 0], "b": block}
            )
        # a block whose names differ from the first block's is rejected
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 2 * 2)
        names = iter(["a", "b"])
        with pytest.raises(ValueError, match="differ"):
            run_replicates_batched(
                4, "named", 0, 2, lambda block: {next(names): block[:, 0]}
            )

    def test_wide_row_output_checks(self, monkeypatch):
        # rows drawn on the threads are checked as blocks are, within a run
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 2)
        with pytest.raises(ValueError, match="'b' has shape"):
            run_replicates_batched(
                4, "named", 0, 3, lambda block: {"a": block[:, 0], "b": block}
            )
        names = itertools.cycle(["a", "b"])
        with pytest.raises(ValueError, match="differ"):
            run_replicates_batched(
                4, "named", 0, 3, lambda block: {next(names): block[:, 0]}
            )

    def test_wrong_output_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            run_replicates_batched(10, "len", 0, 3, lambda block: block)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_replicates_batched(0, "none", 0, 3, lambda b: b[:, 0])
        with pytest.raises(ValueError):
            run_replicates_batched(3, "none", 0, 0, lambda b: b[:, 0])
