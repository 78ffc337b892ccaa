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


def _blocks(n_reps, n_draws):
    """Run the batched harness and return the blocks in the order the task saw them."""
    seen = []

    def task(block):
        seen.append(block.copy())
        return block[:, 0]

    run_replicates_batched(n_reps, "blocks", 21, n_draws, task)
    return seen


class TestRunReplicatesBatched:
    @pytest.mark.parametrize("n_draws", [1, 5, 16, 64])
    def test_rows_are_the_replicate_streams(self, n_draws, monkeypatch):
        # row i of the blocks is make_stream(seed, id, i).raw(n) bit for bit,
        # on both sides of each block boundary; a change in numpy's Philox
        # state layout breaks this instead of silently shifting every table
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 320)
        size = 320 // n_draws
        n_reps = 2 * size + 3
        seen = _blocks(n_reps, n_draws)
        assert [len(b) for b in seen] == [size, size, 3]
        rows = np.concatenate(seen)
        for i in range(n_reps):
            assert np.array_equal(rows[i], make_stream(21, "blocks", i).raw(n_draws))

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
        res = run_replicates_batched(
            300, "wide", 4, 9,
            lambda block: {"first": block[:, 0], "last": block[:, -1]},
        )
        for i in range(300):
            row = make_stream(4, "wide", i).raw(9)
            assert res["first"][i] == row[0]
            assert res["last"][i] == row[-1]

    def test_outputs_in_replicate_order(self, monkeypatch):
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 8 * 4)
        res = run_replicates_batched(50, "ord", 3, 4, lambda block: block[:, 0])
        assert res["value"].tolist() == [
            make_stream(3, "ord", i).raw(1)[0] for i in range(50)
        ]

    def test_named_outputs(self, monkeypatch):
        monkeypatch.setattr(simkit, "_BLOCK_VALUES", 4 * 3)
        res = run_replicates_batched(
            10, "named", 5, 3,
            lambda block: {"first": block[:, 0], "last": block[:, -1]},
        )
        assert list(res) == ["first", "last"]
        for i in range(10):
            row = make_stream(5, "named", i).raw(3)
            assert res["first"][i] == row[0]
            assert res["last"][i] == row[-1]

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

    def test_wrong_output_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            run_replicates_batched(10, "len", 0, 3, lambda block: block)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_replicates_batched(0, "none", 0, 3, lambda b: b[:, 0])
        with pytest.raises(ValueError):
            run_replicates_batched(3, "none", 0, 0, lambda b: b[:, 0])
