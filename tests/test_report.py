import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from statlab import DEFAULT_SEED, cli, figures, gof, mh, pooling, report
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

    def test_long_table_peak_memory_is_bounded(self, tmp_path):
        # a gof_statistics-sized table: one string per cell, 4 096 rows at a
        # time, peaked at ~1.6 MB; whole rows, 1 024 at a time, stay far below
        n = 40_000
        columns = {"n": np.repeat([16, 64], n // 2),
                   "replicate": np.tile(np.arange(n // 2), 2),
                   "statistic": np.linspace(0.0, 40.0, n)}
        tracemalloc.start()
        try:
            write_table(tmp_path / "t.csv", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        assert (tmp_path / "t.csv").read_bytes() == _rows_bytes(columns)

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
    run_and_report(RunConfig({"mh": mh.MhConfig(burn_in=10, n_samples=1000)},
                             root_seed=3, output_dir=tmp_path))
    assert len(calls) == 1


@pytest.mark.parametrize("subcommand, options", [
    ("pooling", {"N": 60, "k_range": (2, 6)}),
    ("mh", {"burn_in": 10, "samples": 1000}),
    ("estimator", {"sizes": (8, 12)}),
    ("gof", {"bins": 4, "sizes": (8, 40)}),
])
def test_run_and_report_writes_exactly_the_listed_files(subcommand, options,
                                                         tmp_path, monkeypatch):
    # the runners only return data: run_and_report writes each listed table,
    # then each listed figure, then the summary, and nothing else but its
    # writability probe
    written = []
    write_table, write_text = report.write_table, Path.write_text

    def table(path, columns):
        written.append(path.name)
        write_table(path, columns)

    def text(path, data, *args, **kwargs):
        written.append(path.name)
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(report, "write_table", table)
    monkeypatch.setattr(Path, "write_text", text)
    plan = cli.make_plan(subcommand, {**options, "reps": 50})
    [doc] = run_and_report(RunConfig({subcommand: plan}, root_seed=5,
                                     output_dir=tmp_path, emit_figures=True))
    files = [*doc["tables"], *doc["figures"], f"{subcommand}_summary.json"]
    assert doc["tables"] and doc["figures"]
    assert written == [".writable", *files]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_run_gof_distances_are_shape_distance(monkeypatch):
    # one reference quadrature for every sample size, and the same distances,
    # bit for bit, as gof.shape_distance computes on its own
    calls = []
    binned = gof.binned_chisq_density

    def counted(*args):
        calls.append(args)
        return binned(*args)

    monkeypatch.setattr(gof, "binned_chisq_density", counted)
    plan = gof.GofPlan(bins=4, sample_sizes=(8, 16, 40), n_reps=300)
    _, _, summary, _ = plan.run(4)
    assert len(calls) == 1
    monkeypatch.setattr(gof, "binned_chisq_density", binned)
    statistics = gof.simulate_uniform_gof(plan, 4)
    assert summary["shape_distance"] == {
        n: gof.shape_distance(v, plan.bins - 1) for n, v in statistics.items()}


def test_run_gof_two_bins_is_finite(tmp_path):
    # at df = 1 the reference density is infinite at 0; the tables, the
    # figures and the summary must still hold only finite numbers
    config = RunConfig({"gof": gof.GofPlan(bins=2, n_reps=300)}, root_seed=4,
                       output_dir=tmp_path, emit_figures=True)
    [doc] = run_and_report(config)
    summary = doc["summary"]
    assert all(math.isfinite(d) for d in summary["shape_distance"].values())
    assert len(doc["figures"]) == 2
    for path in tmp_path.iterdir():
        text = path.read_text()
        assert "inf" not in text and "nan" not in text, path.name


@pytest.mark.parametrize("N", [60, 16, 70])
def test_run_pooling_warns_when_no_candidate_saves(N):
    # brute force over the candidate pool sizes, which for N = 16 and N = 70
    # leave out k = 3, the only integer that helps for p just under 0.3066
    candidates = [k for k in range(2, 11) if N % k == 0]
    for p in np.linspace(0.2, 0.35, 31):
        plan = pooling.PoolingPlan(p=p, N=N, k_range=(2, 10), n_reps=2)
        tables, _, summary, warnings = plan.run(1)
        for columns in tables.values():
            for column in columns.values():
                assert np.all(np.isfinite(column))
        saves = any(pooling.expected_tests_per_person(k, p) < 1.0
                    for k in candidates)
        assert (summary["savings_ratio_at_best_k"] > 1.0) == saves
        assert bool(warnings) == (not saves)
        assert summary["pooling_helps_integer"] == (
            p < pooling.POOLING_HELPS_INTEGER_BELOW)


@pytest.mark.parametrize("n_reps", [1, 2])
def test_run_pooling_warns_that_one_replicate_has_no_spread(n_reps):
    plan = pooling.PoolingPlan(N=60, k_range=(2, 6), n_reps=n_reps)
    tables, _, _, warnings = plan.run(1)
    sds = tables["pooling_candidates.csv"]["simulated_sd"]
    assert (max(sds) == 0.0) == (n_reps == 1)
    assert len(warnings) == (n_reps == 1)
    assert all("--reps 1" in w for w in warnings)


@pytest.mark.parametrize("n_reps", [1, 2])
def test_run_gof_warns_that_one_replicate_has_no_shape(n_reps):
    # one statistic per size reads shape_distance 1.886 (n=16) and 1.881
    # (n=64) at the default seed, two read 0.886 and 0.900, and the default
    # 10 000 read 0.154 and 0.012
    _, _, summary, warnings = gof.GofPlan(n_reps=n_reps).run(DEFAULT_SEED)
    assert (min(summary["shape_distance"].values()) > 1.0) == (n_reps == 1)
    assert len(warnings) == (n_reps == 1)
    assert all("--reps 1" in w and "--reps 2 or more" in w for w in warnings)


@pytest.mark.parametrize("bins", [2, 4, 8, 12, 13, 32])
def test_run_gof_warns_when_the_window_misses_the_reference(bins):
    # [0, 20] holds at least 95 % of chi-square's mass up to df = 11 only;
    # the regularised incomplete gamma gives that mass exactly.  The warning
    # depends on bins alone; at two counts per cell no other warning fires
    plan = gof.GofPlan(bins=bins, sample_sizes=(2 * bins,), n_reps=20)
    _, _, _, warnings = plan.run(1)
    mass = scipy.special.gammainc((bins - 1) / 2, gof.EDGES[-1] / 2)
    assert len(warnings) == (mass < 0.95)
    assert all(f"{mass:.1%}" in w and "--bins" in w for w in warnings)


@pytest.mark.parametrize("bins, sizes, warns", [
    (8, (8,), True), (4, (4, 40), True), (2, (2,), True),
    (8, (16, 64), False), (4, (8, 40), False), (2, (16, 64), False),
])
def test_run_gof_warns_when_a_size_gives_one_count_per_cell(bins, sizes, warns):
    # n = bins expects one count per cell, the only regime below two that
    # GofPlan admits; --bins 8 --sizes 8 reads shape_distance 0.390.  The
    # default and golden plans stay silent
    plan = gof.GofPlan(bins=bins, sample_sizes=sizes, n_reps=20)
    _, _, _, warnings = plan.run(1)
    assert len(warnings) == warns
    assert all(f"--sizes {bins} equals --bins {bins}" in w for w in warnings)


def test_run_pooling_summary_reads_the_tables_savings_ratio():
    # one formula for the savings ratio: the summary's value at the best k is
    # the table's cell, bit for bit
    tables, _, summary, _ = pooling.PoolingPlan().run(DEFAULT_SEED)
    candidates = tables["pooling_candidates.csv"]
    best = candidates["k"].index(summary["best_integer_k"])
    assert summary["savings_ratio_at_best_k"] == (
        candidates["savings_ratio"][best])


@pytest.mark.parametrize("sd, warns", [
    (1e-4, True), (0.1, False), (20.0, True), (1000.0, True),
    (0.3, False), (1.0, False), (2.5, False),
])
def test_run_mh_warns_when_the_acceptance_rate_is_extreme(sd, warns):
    # at the default chain length: near 1, tiny steps are nearly all taken;
    # near 0, long steps are nearly all refused
    _, _, summary, warnings = mh.MhConfig(proposal_sd=sd).run(DEFAULT_SEED)
    rate = summary["acceptance_rate"]
    assert (not 0.05 <= rate <= 0.95) == warns
    assert len(warnings) == warns
    assert all("--proposal-sd" in w and f"{rate:.4f}" in w for w in warnings)


CHARTS = ("line_chart", "histogram_chart", "box_chart")


def test_only_the_writer_draws_figures(tmp_path, monkeypatch):
    originals = {chart: getattr(figures, chart) for chart in CHARTS}

    def failing(*args, **kwargs):
        raise RuntimeError("a chart was drawn")

    for chart in CHARTS:
        monkeypatch.setattr(figures, chart, failing)
    argv = ["all", "--reps", "50", "--out"]
    assert cli.main([*argv, str(tmp_path / "plain")]) == 0
    assert not list((tmp_path / "plain").glob("*.svg"))
    # every chart is drawn before the first file: one that fails leaves nothing
    assert cli.main([*argv, str(tmp_path / "failed"), "--figures"]) == 1
    assert not list((tmp_path / "failed").iterdir())

    drawn = []

    def counting(chart):
        def draw(*args, **kwargs):
            drawn.append(originals[chart](*args, **kwargs))
            return drawn[-1]
        return draw

    for chart in CHARTS:
        monkeypatch.setattr(figures, chart, counting(chart))
    out = tmp_path / "drawn"
    assert cli.main([*argv, str(out), "--figures"]) == 0
    listed = [fig for path in out.glob("*_summary.json")
              for fig in json.loads(path.read_text())["figures"]]
    assert len(listed) == 5
    assert sorted(p.name for p in out.glob("*.svg")) == sorted(listed)
    assert sorted(drawn) == sorted((out / fig).read_text() for fig in listed)
