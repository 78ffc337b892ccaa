import hashlib
import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest

from oracles import replicate_generator
from statlab import simkit
from statlab.simkit import run_replicates_batched, stream


def _uniforms(root_seed, experiment_id, i, n):
    return simkit.uniforms(stream(root_seed, experiment_id, i).random_raw(n))


class TestStreams:
    def test_same_key_same_draws(self):
        a = stream(42, "pool", 0).random_raw(100)
        b = stream(42, "pool", 0).random_raw(100)
        assert np.array_equal(a, b)

    def test_replicate_index_changes_sequence(self):
        a = stream(42, "pool", 0).random_raw(10)
        b = stream(42, "pool", 1).random_raw(10)
        assert a[0] != b[0]

    def test_root_seed_changes_sequence(self):
        a = stream(42, "pool", 0).random_raw(10)
        b = stream(43, "pool", 0).random_raw(10)
        assert not np.array_equal(a, b)

    def test_experiment_id_changes_sequence(self):
        a = stream(42, "pool", 0).random_raw(10)
        b = stream(42, "mh", 0).random_raw(10)
        assert not np.array_equal(a, b)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            stream(1, "x", -1)

    @pytest.mark.parametrize("seed, experiment_id", [
        (-7, "pool"), (0, "gof-n16"), (2**64 + 5, "mh"), (3, "gøf→ñ"),
    ])
    def test_words_are_the_stated_hash_key(self, seed, experiment_id):
        for i in (0, 1, 12345):
            words = stream(seed, experiment_id, i).random_raw(40)
            oracle = replicate_generator(seed, experiment_id, i).bit_generator
            assert np.array_equal(words, oracle.random_raw(40))

    def test_words_continue_across_calls(self):
        # the MH chain draws its one stream a chunk at a time
        chunked = stream(8, "chunks", 0)
        parts = [chunked.random_raw(m) for m in (1, 7, 64, 5)]
        whole = stream(8, "chunks", 0).random_raw(77)
        assert np.array_equal(np.concatenate(parts), whole)


class TestDraws:
    def test_normal_moments(self):
        draws = simkit.normals_from_uniforms(_uniforms(7, "norm", 0, 100_000))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std(ddof=1) - 1.0) < 0.02

    def test_uniform_ks_distance(self):
        u = np.sort(_uniforms(11, "unif", 0, 100_000))
        n = u.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(ecdf_hi - u), np.max(u - ecdf_lo))
        assert ks < 0.006

    def test_first_draw_cross_stream_correlation(self):
        firsts = np.array(
            [_uniforms(5, "indep", i, 1)[0] for i in range(10_000)]
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
            material = b"%d\x00%s\x00%d" % (seed, experiment_id.encode(), 9 + r)
            digest = hashlib.sha256(material).digest()
            assert lo | hi << 64 == int.from_bytes(digest[:16], "little")

    @pytest.mark.parametrize("n_draws", [SHORT, SHORT + 1])
    def test_engine_rows_at_the_crossover(self, n_draws, monkeypatch):
        # either side of the crossover, blocks of 3 rows with a ragged last
        # one, all on the calling thread: rows that fit a block start no thread
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 3 * n_draws + 1)
        threads = _count_threads(monkeypatch)
        seen = _blocks(8, n_draws)
        assert [len(b) for b in seen] == [3, 3, 2]
        assert threads == []
        _assert_stream_rows(np.concatenate(seen), 21, "blocks")


def _assert_stream_rows(rows, seed, experiment_id):
    """Row i of the words ``rows`` is replicate i's stream words."""
    assert rows.dtype == np.uint64
    for i, row in enumerate(rows):
        words = replicate_generator(seed, experiment_id, i).bit_generator
        assert np.array_equal(row, words.random_raw(len(row)))


def _count_threads(monkeypatch):
    """The list to which every thread constructed from now on is appended."""
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simkit.threading, "Thread", Counted)
    return made


def _columns(block):
    """A task returning each row's uniforms, so the engine returns whole rows."""
    return simkit.uniforms(block)


def _blocks(n_reps, n_draws):
    """Run the batched harness and return the blocks in the order the task saw them."""
    seen = []

    def task(block):
        seen.append(block.copy())
        return block[:, 0]

    run_replicates_batched(n_reps, "blocks", 21, n_draws, task)
    return seen


class TestRunReplicatesBatched:
    @pytest.mark.parametrize("n_draws, wide", [
        *[pytest.param(n, False, id=str(n)) for n in (1, 5, 16, 64, 100)],
        *[pytest.param(n, True, id=f"{n}-wide") for n in (SHORT + 1, 100)]])
    def test_rows_are_the_replicate_streams(self, n_draws, wide, monkeypatch):
        # row i of the blocks is stream(seed, id, i).random_raw(n) bit for bit,
        # on both sides of each block boundary, and on both threads, in spans
        # of 2 rows, when a row is wider than a block; a change in numpy's
        # Philox state layout breaks this instead of silently shifting every table
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", n_draws - 1 if wide else 320)
        monkeypatch.setattr(simkit, "_RUN_ROWS", 2)
        size = 1 if wide else 320 // n_draws
        n_reps = 2 * size + 3
        seen = _blocks(n_reps, n_draws)
        assert [len(b) for b in seen] == ([1] * 5 if wide else [size, size, 3])
        # the threads may see their blocks in either order, so the rows are
        # read back from the output, where float64 views keep every bit
        rows = run_replicates_batched(
            n_reps, "blocks", 21, n_draws, lambda block: block.view(float))
        _assert_stream_rows(rows.view(np.uint64), 21, "blocks")

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
        # rows wider than a block run one per block on the calling thread and
        # its helper, each with its own generator; outputs still come back in
        # replicate order
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", SHORT)
        rows = run_replicates_batched(300, "wide", 4, SHORT + 1, _columns)
        for i in range(300):
            assert np.array_equal(
                rows[i], replicate_generator(4, "wide", i).random(SHORT + 1))

    @pytest.mark.parametrize("run_rows, helpers", [
        pytest.param(n, h, id=str(n) if h == simkit._HELPERS else f"{n}-{h}-helpers")
        for h in (simkit._HELPERS, 0, 3) for n in (1, 3, 64)])
    def test_run_length_does_not_change_rows(self, run_rows, helpers,
                                             monkeypatch):
        # wide rows go to the calling thread and its helpers in runs of
        # consecutive replicates, each worker re-keying the one Philox it
        # keeps; 150 rows end partway through a run of every length tried
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", SHORT)
        monkeypatch.setattr(simkit, "_RUN_ROWS", run_rows)
        monkeypatch.setattr(simkit, "_HELPERS", helpers)
        threads = _count_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a shared row
        try:
            ends = run_replicates_batched(
                150, "runs", 6, SHORT + 1,
                lambda block: simkit.uniforms(block[:, [0, -1]]))
            plain = run_replicates_batched(
                150, "runs", 6, SHORT + 1, lambda block: simkit.uniforms(block[:, 1]))
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 2 * helpers
        for i in range(150):
            row = replicate_generator(6, "runs", i).random(SHORT + 1)
            assert ends[i].tolist() == [row[0], row[-1]]
            assert plain[i] == row[1]

    @pytest.mark.parametrize("n_draws", [SHORT, SHORT + 1])
    def test_narrow_row_error_propagates_unchanged(self, n_draws, monkeypatch):
        # the task's own exception comes out of the engine, and no block
        # after the failing one reaches the task
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 2 * n_draws)
        error = RuntimeError("second block failed")
        calls = []

        def task(block):
            calls.append(len(block))
            if len(calls) == 2:
                raise error
            return block[:, 0]

        with pytest.raises(RuntimeError) as excinfo:
            run_replicates_batched(10, "fail", 0, n_draws, task)
        assert excinfo.value is error
        assert calls == [2, 2]

    def test_wide_row_error_skips_queued_runs(self, monkeypatch):
        # whichever worker takes run 0 holds its first row while the other
        # worker fails on run 1; neither may then start a further run, so
        # only run 0 goes on to its end
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", SHORT)
        monkeypatch.setattr(simkit, "_RUN_ROWS", 4)
        replicate_of = {replicate_generator(0, "fail", i).random(): i for i in range(8)}
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
            run_replicates_batched(400, "fail", 0, SHORT + 1, task)
        assert next(calls) - 1 == 4 + 1

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_wide_row_error_on_either_thread_propagates(self, failing,
                                                        monkeypatch):
        # the failing thread raises on its first row; the other holds its
        # first row until then and ends its run, and neither starts another,
        # so the other makes no task call or one run's four
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", SHORT)
        monkeypatch.setattr(simkit, "_RUN_ROWS", 4)
        caller = threading.get_ident()
        failed = threading.Event()
        calls = []  # list.append is atomic under the GIL

        def task(block):
            where = "caller" if threading.get_ident() == caller else "helper"
            calls.append(where)
            if where == failing:
                failed.set()
                raise RuntimeError(f"{where} failed")
            if not failed.wait(5):
                raise RuntimeError("the other thread never failed")
            time.sleep(0.05)  # the failing thread records its error meanwhile
            return block[:, 0]

        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            run_replicates_batched(400, "fail", 0, SHORT + 1, task)
        other = "helper" if failing == "caller" else "caller"
        assert calls.count(failing) == 1
        assert calls.count(other) in (0, 4)

    def test_wide_rows_leave_no_thread_behind(self, monkeypatch):
        # the helper has ended by the time the call returns or raises, even
        # when it fails after the calling thread has
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", SHORT)
        before = threading.active_count()
        run_replicates_batched(100, "threads", 1, SHORT + 1, lambda b: b[:, 0])
        assert threading.active_count() == before
        caller = threading.get_ident()

        def task(block):
            if threading.get_ident() != caller:
                time.sleep(0.2)
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            run_replicates_batched(100, "threads", 1, SHORT + 1, task)
        assert threading.active_count() == before

    def test_outputs_in_replicate_order(self, monkeypatch):
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 8 * 4)
        res = run_replicates_batched(
            50, "ord", 3, 4, lambda block: simkit.uniforms(block[:, 0]))
        assert res.tolist() == [
            replicate_generator(3, "ord", i).random() for i in range(50)
        ]

    def test_two_dimensional_outputs(self, monkeypatch):
        # a (rows, m) output comes back as (n_reps, m), rows in replicate order
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 4 * 3)
        rows = run_replicates_batched(10, "rows", 5, 3, _columns)
        assert rows.shape == (10, 3)
        for i in range(10):
            assert np.array_equal(rows[i], replicate_generator(5, "rows", i).random(3))

    def test_every_block_output_is_checked(self, monkeypatch):
        # a later block whose output has the wrong first axis is rejected
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 2 * 2)
        shorts = iter([False, True])
        with pytest.raises(ValueError, match=r"shape \(1,\), expected 2 rows"):
            run_replicates_batched(
                4, "rows", 0, 2,
                lambda block: block[1:, 0] if next(shorts) else block[:, 0])

    def test_wide_row_output_checks(self, monkeypatch):
        # rows drawn on the threads are checked one by one, within a run
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 2)
        with pytest.raises(ValueError, match=r"shape \(3,\), expected 1 rows"):
            run_replicates_batched(4, "rows", 0, 3, lambda block: block[0])
        with pytest.raises(ValueError, match=r"shape \(\), expected 1 rows"):
            run_replicates_batched(4, "rows", 0, 3, lambda block: block[0, 0])

    def test_wrong_output_length_rejected(self):
        # the first axis must be the block's rows; a (rows, 3) output is valid
        with pytest.raises(ValueError, match=r"shape \(3, 10\)"):
            run_replicates_batched(10, "len", 0, 3, lambda block: block.T)
        assert run_replicates_batched(10, "len", 0, 3, _columns).shape == (10, 3)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_replicates_batched(0, "none", 0, 3, lambda b: b[:, 0])
        with pytest.raises(ValueError):
            run_replicates_batched(3, "none", 0, 0, lambda b: b[:, 0])
