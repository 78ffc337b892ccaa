import json

import pytest

from statlab.cli import main, parse_config
from statlab.report import RunConfig, run_and_report


class TestParseConfig:
    def test_pooling_flags(self):
        config = parse_config(
            ["pooling", "--p", "0.05", "--N", "5000", "--seed", "7"]
        )
        assert config.subcommand == "pooling"
        assert config.root_seed == 7
        assert config.options["p"] == 0.05
        assert config.options["N"] == 5000

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config([])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["pooling", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"seed": 9}))
        config = parse_config(["gof", "--config", str(cfg), "--seed", "7"])
        assert config.root_seed == 7

    def test_config_file_beats_default(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"seed": 9, "reps": 77}))
        config = parse_config(["gof", "--config", str(cfg)])
        assert config.root_seed == 9
        assert config.n_reps == 77

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STATLAB_OUT", str(tmp_path / "envout"))
        config = parse_config(["mh"])
        assert config.output_dir == tmp_path / "envout"
        # explicit flag still wins
        config = parse_config(["mh", "--out", str(tmp_path / "flagout")])
        assert config.output_dir == tmp_path / "flagout"

    @pytest.mark.parametrize("argv, flag", [
        (["gof", "--sizes", "12"], "--sizes"),
        (["gof", "--bins", "5"], "--sizes"),
        (["gof", "--bins", "1"], "--bins"),
        (["pooling", "--p", "0"], "--p"),
        (["pooling", "--p", "1"], "--p"),
        (["mh", "--proposal-sd", "inf"], "--proposal-sd"),
        (["mh", "--proposal-sd", "0"], "--proposal-sd"),
        (["mh", "--proposal-sd", "nan"], "--proposal-sd"),
        (["mh", "--samples", "0"], "--samples"),
        (["mh", "--burn-in", "-1"], "--burn-in"),
        (["gof", "--reps", "0"], "--reps"),
        (["pooling", "--reps", "-1"], "--reps"),
        (["estimator", "--reps", "1"], "--reps"),
        (["all", "--reps", "1"], "--reps"),
        (["estimator", "--sigma", "0"], "--sigma"),
        (["estimator", "--sigma", "nan"], "--sigma"),
        (["estimator", "--sigma", "inf"], "--sigma"),
        (["estimator", "--sizes", "3"], "--sizes"),
        (["pooling", "--k-range", "7:7"], "--k-range"),
        (["pooling", "--k-range", "10:2"], "--k-range"),
        (["pooling", "--N", "97"], "--N"),
    ])
    def test_invalid_option_is_usage_error(self, argv, flag, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_invalid_config_file_option_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"p": 0.0}))
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["pooling", "--config", str(cfg)])
        assert excinfo.value.code == 2
        assert "--p" in capsys.readouterr().err

    def test_config_file_reps_zero_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"reps": 0}))
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["gof", "--config", str(cfg)])
        assert excinfo.value.code == 2
        assert "--reps" in capsys.readouterr().err

    def test_config_file_value_of_wrong_type_is_usage_error(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"proposal_sd": "wide"}))
        assert main(["mh", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("values, key", [
        ({"burn_in": 1.5, "samples": 1000}, "burn_in"),
        ({"samples": True}, "samples"),
        ({"seed": "7"}, "seed"),
        ({"reps": 10.0}, "reps"),
        ({"workers": None}, "workers"),
        ({"sizes": [16, 6.4]}, "sizes"),
        ({"k_range": 2}, "k_range"),
        ({"proposal": 1.0}, "proposal"),
    ])
    def test_bad_config_file_key_is_usage_error(self, values, key, tmp_path,
                                                capsys):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert main(["mh", "--config", str(cfg), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_may_carry_other_subcommands_keys(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"p": 0.1, "bins": 4, "samples": 10,
                                   "workers": 2, "k_range": [2, 5]}))
        config = parse_config(["gof", "--config", str(cfg)])
        assert config.options == {"bins": 4}
        config = parse_config(["all", "--config", str(cfg)])
        assert config.options == {}

    def test_range_and_sizes_parsing(self):
        config = parse_config(["pooling", "--k-range", "2:10"])
        assert config.options["k_range"] == (2, 10)
        config = parse_config(["estimator", "--sizes", "100,400"])
        assert config.options["sizes"] == (100, 400)


class TestRunAndReport:
    def test_tables_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for name, workers in (("a", 1), ("b", 4)):
            out = tmp_path / name
            code = main(
                ["gof", "--seed", "11", "--reps", "200", "--out", str(out),
                 "--workers", str(workers)]
            )
            assert code == 0
            outs.append(out)
        for csv in sorted(outs[0].glob("*.csv")):
            assert csv.read_bytes() == (outs[1] / csv.name).read_bytes()

    def test_pooling_report_contents(self, tmp_path):
        code = main(
            ["pooling", "--reps", "100", "--out", str(tmp_path), "--figures"]
        )
        assert code == 0
        table = (tmp_path / "pooling_candidates.csv").read_text().splitlines()
        assert table[0].startswith("k,n_pools,expected_tests_analytic")
        assert len(table) == 6  # header + candidates 2,4,5,8,10
        summary = json.loads((tmp_path / "pooling_summary.json").read_text())
        assert summary["summary"]["best_integer_k"] == 5
        svg = (tmp_path / "pooling_cost_curve.svg").read_text()
        assert svg.startswith("<?xml") and "<metadata>" in svg

    def test_pooling_that_cannot_help_is_flagged(self, tmp_path, capsys):
        code = main(["pooling", "--p", "0.5", "--reps", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "pooling_summary.json").read_text())
        summary = doc["summary"]
        assert summary["pooling_helps"] is False
        assert summary["continuous_optimum_k"] is None
        assert summary["bisection_cross_check_k"] is None
        assert summary["continuous_optimum_at_boundary"] is True
        assert any("test individually" in w for w in doc["warnings"])
        assert "test individually" in capsys.readouterr().err

    def test_short_chain_flagged(self, tmp_path, capsys):
        code = main(
            ["mh", "--burn-in", "1000", "--samples", "1000",
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "mh_summary.json").read_text())
        assert any("short chain" in w for w in summary["warnings"])
        assert "short chain" in capsys.readouterr().err

    def test_estimator_report(self, tmp_path):
        code = main(
            ["estimator", "--reps", "100", "--sizes", "100,400",
             "--out", str(tmp_path), "--figures"]
        )
        assert code == 0
        lines = (tmp_path / "estimator_distributions.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 100  # two estimators, two sizes
        assert (tmp_path / "estimator_box.svg").exists()

    def test_zero_reps_is_not_the_default(self, tmp_path):
        config = RunConfig(subcommand="gof", root_seed=3, n_reps=0,
                           output_dir=tmp_path)
        with pytest.raises(ValueError):
            run_and_report(config)

    def test_unwritable_output_dir_fails_with_runtime_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["gof", "--reps", "10", "--out", str(blocker / "sub")])
        assert code == 1

    def test_all_runs_every_subcommand(self, tmp_path):
        config = RunConfig(
            subcommand="all", root_seed=3, n_reps=50, output_dir=tmp_path
        )
        config_reports = run_and_report(config)
        assert [r.subcommand for r in config_reports] == [
            "pooling", "mh", "estimator", "gof"
        ]
        for name in ("pooling", "mh", "estimator", "gof"):
            assert (tmp_path / f"{name}_summary.json").exists()
