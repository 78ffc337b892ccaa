import math

import numpy as np
import pytest

from statlab import gof, mh, pooling, report
from statlab.report import RunConfig, run_and_report, write_table


def _num(x) -> str:
    """The row-wise cell format that the column-wise writer must reproduce."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


def _rows_bytes(columns: dict) -> bytes:
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(_num(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


SPECIALS = [math.inf, -math.inf, math.nan, -0.0, 1e-300, float(2**53),
            0.1, -123456.789012345, 5e-324, 1.7976931348623157e308]

COLUMNS = {
    "py_int": [0, -7, 2**53, 2**53 + 1, 10**15, 1, 2, 3, 4, 5],
    "np_int64": np.array([0, -1, 2**53, -(2**62), 7, 8, 9, 10, 11, 12]),
    "np_uint32": np.arange(10, dtype=np.uint32) * 400_000_000,
    "int_scalars": [np.int32(v) for v in range(-5, 5)],
    "py_float": SPECIALS,
    "np_float64": np.array(SPECIALS),
    "np_float32": np.array(SPECIALS[:8] + [3.25, 1e-30], dtype=np.float32),
    "float_scalars": [np.float64(v) for v in SPECIALS],
    "py_str": ["iqr", "s", "", "a b", "x", "y", "z", "w", "v", "u"],
    "np_str": np.repeat(["iqr", "s"], 5),
}


class TestWriteTable:
    @pytest.mark.parametrize("chunk_rows", [None, 3, 10])
    def test_bytes_match_row_formatting(self, chunk_rows, tmp_path, monkeypatch):
        if chunk_rows is not None:
            monkeypatch.setattr(report, "_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "t.csv"
        write_table(path, COLUMNS)
        assert path.read_bytes() == _rows_bytes(COLUMNS)

    def test_special_float_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, {"x": SPECIALS[:6], "k": [2**53] * 6})
        assert path.read_text().splitlines() == [
            "x,k",
            "inf,9007199254740992",
            "-inf,9007199254740992",
            "nan,9007199254740992",
            "-0,9007199254740992",
            "1e-300,9007199254740992",
            "9.007199255e+15,9007199254740992",
        ]

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, {"a": [], "b": np.array([])})
        assert path.read_bytes() == b"a,b\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_table(tmp_path / "t.csv", {"a": [1, 2], "b": [1.0]})

    def test_mixed_column_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_table(tmp_path / "t.csv", {"a": [1, "x", None]})


def test_run_mh_bins_the_reference_once(tmp_path, monkeypatch):
    calls = []
    binned = mh.binned_true_density

    def counted(*args):
        calls.append(args)
        return binned(*args)

    monkeypatch.setattr(mh, "binned_true_density", counted)
    run_and_report(RunConfig(subcommand="mh", root_seed=3, output_dir=tmp_path,
                             options={"burn_in": 10, "samples": 1000}))
    assert len(calls) == 1


@pytest.mark.parametrize("chunk", [7, 100, 1 << 16])
def test_chunked_variance(chunk, monkeypatch):
    # two passes a chunk at a time, whole or ragged, agree with numpy's var
    monkeypatch.setattr(report, "_CHUNK_SAMPLES", chunk)
    x = 1.0 + 3.0 * np.random.default_rng(chunk).standard_normal(100)
    assert math.isclose(report._variance(x), x.var(), rel_tol=1e-14)
    assert report._variance(np.full(10, 2.5)) == 0.0


def test_run_gof_distances_are_shape_distance(tmp_path, monkeypatch):
    # one reference quadrature for every sample size, and the same distances,
    # bit for bit, as gof.shape_distance computes on its own
    calls = []
    binned = gof.binned_chisq_density

    def counted(*args):
        calls.append(args)
        return binned(*args)

    monkeypatch.setattr(gof, "binned_chisq_density", counted)
    config = RunConfig(subcommand="gof", root_seed=4, n_reps=300,
                       options={"bins": 4, "sizes": (8, 16, 40)})
    _, _, summary, _ = report.run_gof(config, tmp_path)
    assert len(calls) == 1
    monkeypatch.setattr(gof, "binned_chisq_density", binned)
    plan = gof.GofPlan(bins=4, sample_sizes=(8, 16, 40), n_reps=300)
    result = gof.simulate_uniform_gof(plan, 4)
    assert summary["shape_distance"] == {
        n: gof.shape_distance(v, result.df) for n, v in result.statistics.items()}


def test_run_gof_two_bins_is_finite(tmp_path):
    # at df = 1 the reference density is infinite at 0; the tables and the
    # summary must still hold only finite numbers
    config = RunConfig(subcommand="gof", root_seed=4, n_reps=300,
                       options={"bins": 2})
    tables, _, summary, _ = report.run_gof(config, tmp_path)
    assert all(math.isfinite(d) for d in summary["shape_distance"].values())
    for name in tables:
        assert "nan" not in (tmp_path / name).read_text()


@pytest.mark.parametrize("N", [60, 16, 70])
def test_run_pooling_warns_when_no_candidate_saves(N, tmp_path):
    # brute force over the candidate pool sizes, which for N = 16 and N = 70
    # leave out k = 3, the only integer that helps for p just under 0.3066
    candidates = [k for k in range(2, 11) if N % k == 0]
    for p in np.linspace(0.2, 0.35, 31):
        config = RunConfig(subcommand="pooling", root_seed=1, n_reps=1,
                           options={"p": p, "N": N, "k_range": (2, 10)})
        _, _, summary, warnings = report.run_pooling(config, tmp_path)
        saves = any(pooling.expected_tests_per_person(k, p) < 1.0
                    for k in candidates)
        assert (summary["savings_ratio_at_best_k"] > 1.0) == saves
        assert bool(warnings) == (not saves)
        assert summary["pooling_helps_integer"] == (
            p < pooling.POOLING_HELPS_INTEGER_BELOW)
