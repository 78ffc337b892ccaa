import dataclasses
import json
import math
import platform
from importlib import metadata
from pathlib import Path

import pytest

import statlab
from statlab import cli
from statlab.cli import OPTIONS, main, parse_config
from statlab.estimators import MAX_TRUE_SD, EstimatorStudyPlan
from statlab.gof import GofPlan
from statlab.mh import MAX_CHAIN_STEPS, MAX_PROPOSAL_SD, MhConfig
from statlab.pooling import PoolingPlan
from statlab.report import RunConfig, run_and_report
from statlab.simkit import (MAX_REPLICATE_SIZES, MAX_REPS, MAX_ROW_DRAWS,
                            MAX_RUN_WORDS)

# A valid value of every option: its flag text (None for a switch) and the
# same value as a config file holds it.
OPTION_VALUES = {
    "seed": ("7", 7), "reps": ("50", 50), "out": ("o", "o"),
    "figures": (None, True), "workers": ("2", 2), "p": ("0.1", 0.1),
    "N": ("6000", 6000), "k_range": ("3:6", [3, 6]), "burn_in": ("500", 500),
    "samples": ("700", 700), "proposal_sd": ("0.5", 0.5),
    "sizes": ("32,48", [32, 48]), "sigma": ("2.5", 2.5), "bins": ("4", 4),
}


class TestParseConfig:
    def test_pooling_flags(self):
        config = parse_config(
            ["pooling", "--p", "0.05", "--N", "5000", "--seed", "7"]
        )
        assert config.root_seed == 7
        assert config.plans == {"pooling": PoolingPlan(p=0.05, N=5000)}

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
        assert config.plans["gof"].n_reps == 77

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
        (["estimator", "--sizes", "100,100", "--reps", "10"], "--sizes"),
        (["gof", "--sizes", "16,16"], "--sizes"),
        (["mh", "--reps", "5"], "--reps"),
        # past a plan's bound; a dict last is a config file holding it
        (["pooling", "--N", "1" + "0" * 400], "--N"),
        (["pooling", "--N", "10000001"], "--N"),
        (["pooling", {"N": 10**400}], "--N"),
        (["mh", "--proposal-sd", "1e308"], "--proposal-sd"),
        (["mh", "--proposal-sd", "2e75"], "--proposal-sd"),
        (["mh", {"proposal_sd": 1e308}], "--proposal-sd"),
        (["estimator", "--sigma", "1e308"], "--sigma"),
        (["estimator", "--sigma", "1e154"], "--sigma"),
        (["estimator", {"sigma": 1e308}], "--sigma"),
        (["pooling", "--p", "1e-17"], "--p"),
        (["pooling", "--p", "1e-300"], "--p"),
        (["pooling", {"p": 1e-17}], "--p"),
        (["estimator", "--sigma", "5e-324"], "--sigma"),
        (["pooling", "--workers", "0"], "--workers"),
        (["pooling", "--workers", "-3"], "--workers"),
        (["all", "--workers", "0"], "--workers"),
        (["pooling", {"workers": 0}], "--workers"),
        (["mh", {"workers": -1}], "--workers"),
    ])
    def test_invalid_option_is_usage_error(self, argv, flag, tmp_path, capsys):
        if isinstance(argv[-1], dict):
            cfg = tmp_path / "conf.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], "--config", str(cfg)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize("out", ["", {"out": ""}], ids=["flag", "config"])
    def test_empty_out_is_usage_error(self, out, tmp_path, monkeypatch, capsys):
        # an empty path names the current directory: nothing may be written
        monkeypatch.chdir(tmp_path)
        argv = ["mh", "--samples", "10", "--out", out]
        if isinstance(out, dict):
            (tmp_path / "conf.json").write_text(json.dumps(out))
            argv[-2:] = ["--config", "conf.json"]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        assert "--out" in capsys.readouterr().err.splitlines()[-1]
        assert sorted(tmp_path.rglob("*")) == before

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
        ({"p": "0.1"}, "p"),
        ({"p": False}, "p"),
        ({"sigma": "2"}, "sigma"),
        ({"sigma": True}, "sigma"),
        ({"proposal_sd": "wide"}, "proposal_sd"),
        ({"proposal_sd": None}, "proposal_sd"),
        ({"figures": "no"}, "figures"),
        ({"figures": 1}, "figures"),
        ({"figures": None}, "figures"),
        ({"out": 5}, "out"),
        ({"out": None}, "out"),
        ({"out": ["a"]}, "out"),
        # integers too large for a float
        ({"sigma": 10**400}, "sigma"),
        ({"p": -(10**400)}, "p"),
        ({"proposal_sd": 10**400}, "proposal_sd"),
    ])
    def test_bad_config_file_key_is_usage_error(self, values, key, tmp_path,
                                                capsys):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert main(["mh", "--config", str(cfg), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"N": 5000,}', "Expecting property name"),
        ('{"N": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        pytest.param("[" * 100000 + "]" * 100000,
                     "maximum recursion depth exceeded", id="deep-nesting"),
    ])
    def test_unparsable_config_file_is_usage_error_naming_it(self, text, message,
                                                             tmp_path, capsys):
        cfg = tmp_path / "conf.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["pooling", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}: {message}" in err
        assert not out.exists()

    def test_config_file_not_an_object_is_usage_error_naming_it(self, tmp_path,
                                                                capsys):
        cfg = tmp_path / "conf.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["pooling", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config file {cfg} must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_nul_in_config_out_is_usage_error_naming_it(self, tmp_path, capsys,
                                                         monkeypatch):
        # with no --out flag, the file's "out" names the directory to make
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"out": "a\0b"}))
        assert main(["pooling", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}: 'out' must not hold a NUL character" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("name, message", [
        ("missing.json", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unreadable_config_file_is_usage_error_naming_it(self, name, message,
                                                             tmp_path, capsys):
        cfg = tmp_path / name
        out = tmp_path / "out"
        assert main(["pooling", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: statlab")
        assert f"error: config file {cfg}: " in err and message in err
        assert not out.exists()

    def test_all_names_the_study_that_rejects_a_value(self, capsys):
        # pooling and gof take one replicate; under all, the estimator's
        # rejection names the estimator
        parse_config(["pooling", "--reps", "1"])
        parse_config(["gof", "--reps", "1"])
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["all", "--reps", "1"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: estimator: --reps must lie in [2, {MAX_REPS}], got 1\n")

    @pytest.mark.parametrize("parsed, rejected", [
        (["pooling", "--p", "x"], ["pooling", "--p", "2"]),
        (["pooling", "--p", "x"], ["pooling", "--config", "missing.json"]),
        (["all", "--reps", "x"], ["all", "--reps", "1"]),
    ])
    def test_usage_errors_show_the_subcommands_usage(self, parsed, rejected,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        # a value argparse rejects, and one a plan or config file rejects,
        # print the same usage line and "statlab <sub>: error:" prefix
        monkeypatch.chdir(tmp_path)
        heads = []
        for argv in (parsed, rejected):
            assert main(argv) == 2
            err = capsys.readouterr().err
            heads.append(err[:err.index("error: ")])
        assert heads[0] == heads[1]
        assert heads[0].startswith(f"usage: statlab {parsed[0]} ")
        assert heads[0].endswith(f"\nstatlab {parsed[0]}: ")

    @pytest.mark.parametrize("argv, flag", [
        (["gof", "--reps", str(MAX_REPS)], "--reps"),
        (["estimator", "--reps", str(MAX_REPS)], "--reps"),
        (["pooling", "--reps", str(MAX_REPS)], "--reps"),
        (["all", "--reps", str(MAX_REPS)], "--reps"),
        (["mh", "--burn-in", "0", "--samples", str(MAX_CHAIN_STEPS)], "--samples"),
        (["mh", "--burn-in", "10", "--samples", str(MAX_CHAIN_STEPS - 10)],
         "--samples"),
        (["mh", "--samples", "1", "--burn-in", str(MAX_CHAIN_STEPS - 1)],
         "--burn-in"),
        (["pooling", "--N", str(MAX_ROW_DRAWS)], "--N"),
        (["estimator", "--sizes", str(MAX_ROW_DRAWS)], "--sizes"),
        (["gof", "--sizes", str(MAX_ROW_DRAWS), "--bins", str(MAX_ROW_DRAWS)],
         "--bins"),
        (["estimator", "--sizes", ",".join(map(str, range(4, 24))),
          "--reps", str(MAX_REPLICATE_SIZES // 20)], "--sizes"),
        (["gof", "--sizes", str(MAX_ROW_DRAWS),
          "--reps", str(MAX_RUN_WORDS // MAX_ROW_DRAWS)], "--reps"),
        # each of the five divisors of N in the default k-range 2:10 draws N
        # words per replicate
        (["pooling", "--N", str(MAX_ROW_DRAWS),
          "--reps", str(MAX_RUN_WORDS // (5 * MAX_ROW_DRAWS))], "--reps"),
    ])
    def test_run_size_bound_admits_the_bound_only(self, argv, flag, capsys):
        # builds plans only: nothing of this size is run
        parse_config(argv)
        past = [*argv[:-1], str(int(argv[-1]) + 1)]
        with pytest.raises(SystemExit) as excinfo:
            parse_config(past)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("study, sizes", [
        ("gof", range(8, 16_001, 8)),
        ("estimator", range(4, 15)),
    ])
    def test_replicate_size_pairs_are_bounded(self, study, sizes, capsys):
        # builds plans only: 2 000 gof sizes at 10**6 replicates would hold
        # some 60 GB of table before the first write
        argv = [study, "--sizes", ",".join(map(str, sizes)), "--reps", str(MAX_REPS)]
        with pytest.raises(SystemExit) as excinfo:
            parse_config(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert "--reps" in message and "--sizes" in message

    @pytest.mark.parametrize("argv, flags", [
        # 63 divisors of 10**7 in the k-range at 10**6 replicates: 6.3e14
        # words, about 44 days of draws
        (["pooling", "--N", str(MAX_ROW_DRAWS), "--k-range",
          f"2:{MAX_ROW_DRAWS}", "--reps", str(MAX_REPS)],
         ("--reps", "--N", "--k-range")),
        (["gof", "--sizes", f"{MAX_ROW_DRAWS},{MAX_ROW_DRAWS // 2}"],
         ("--reps", "--sizes")),
        (["estimator", "--sizes", str(MAX_ROW_DRAWS), "--reps", str(MAX_REPS)],
         ("--reps", "--sizes")),
    ])
    def test_run_words_are_bounded(self, argv, flags, capsys):
        # builds plans only: nothing of this size is run
        with pytest.raises(SystemExit) as excinfo:
            parse_config(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert f"must be at most {MAX_RUN_WORDS} words" in message
        assert all(flag in message for flag in flags)

    def test_config_file_bool_and_path_keys(self, tmp_path):
        cfg = tmp_path / "conf.json"
        out = tmp_path / "from_file"
        for figures in (True, False):
            cfg.write_text(json.dumps({"figures": figures, "out": str(out)}))
            config = parse_config(["gof", "--config", str(cfg)])
            assert config.emit_figures is figures
            assert config.output_dir == out

    def test_config_file_may_carry_other_subcommands_keys(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"p": 0.1, "bins": 4, "samples": 10,
                                   "workers": 2, "k_range": [2, 5]}))
        config = parse_config(["gof", "--config", str(cfg)])
        assert config.plans == {"gof": GofPlan(bins=4)}
        config = parse_config(["all", "--config", str(cfg)])
        assert config.plans == parse_config(["all"]).plans
        # mh takes no --reps, but a file may hold one for the other studies
        cfg.write_text(json.dumps({"reps": 5, "samples": 10}))
        config = parse_config(["mh", "--config", str(cfg)])
        assert config.plans == {"mh": MhConfig(n_samples=10)}

    @pytest.mark.parametrize("key, subcommand", [
        (key, sub) for key, option in OPTIONS.items() for sub in option.subcommands])
    def test_flag_and_config_file_agree(self, key, subcommand, tmp_path,
                                        monkeypatch):
        monkeypatch.delenv("STATLAB_OUT", raising=False)
        text, value = OPTION_VALUES[key]
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({key: value}))
        from_flag = parse_config([subcommand, flag, *([text] if text else [])])
        from_file = parse_config([subcommand, "--config", str(cfg)])
        assert from_flag == from_file
        # every option but --workers reaches the RunConfig
        assert (from_flag != parse_config([subcommand])) == (key != "workers")

    @pytest.mark.parametrize("argv, expected", [
        (["gof", "--reps", "20000", "--figures"],
         {"gof": GofPlan(n_reps=20000)}),
        (["estimator", "--reps", "5000", "--figures"],
         {"estimator": EstimatorStudyPlan(n_reps=5000)}),
        (["pooling", "--N", "20000", "--k-range", "2:10", "--reps", "2000",
          "--workers", "2", "--figures"],
         {"pooling": PoolingPlan(N=20000, k_range=(2, 10), n_reps=2000)}),
        (["mh", "--burn-in", "1000000", "--samples", "2000000", "--figures"],
         {"mh": MhConfig(burn_in=1000000, n_samples=2000000)}),
        (["all", "--reps", "50", "--figures"],
         {"pooling": PoolingPlan(n_reps=50), "mh": MhConfig(),
          "estimator": EstimatorStudyPlan(n_reps=50), "gof": GofPlan(n_reps=50)}),
    ])
    def test_benchmark_argv(self, argv, expected, monkeypatch):
        # the plans that run, in run order
        monkeypatch.delenv("STATLAB_OUT", raising=False)
        config = parse_config(argv)
        assert config == RunConfig(expected, 20070420, Path("statlab_out"), True)
        assert list(config.plans) == list(expected)

    @pytest.mark.parametrize("argv, expected", [
        (["pooling", "--k-range", "x"],
         "argument --k-range: expected integers separated by ':', got 'x'"),
        (["pooling", "--k-range", "2,10"],
         "argument --k-range: expected integers separated by ':', got '2,10'"),
        (["gof", "--sizes", "16,x"],
         "argument --sizes: expected integers separated by ',', got '16,x'"),
        (["estimator", "--sizes", "100:400"],
         "argument --sizes: expected integers separated by ',', got '100:400'"),
    ])
    def test_malformed_integer_list_names_the_form(self, argv, expected, capsys):
        assert main(argv) == 2
        assert expected in capsys.readouterr().err

    def test_range_and_sizes_parsing(self):
        config = parse_config(["pooling", "--k-range", "3:9"])
        assert config.plans["pooling"].k_range == (3, 9)
        config = parse_config(["estimator", "--sizes", "50,200"])
        assert config.plans["estimator"].sample_sizes == (50, 200)


def test_make_plan_renames_keys_and_keeps_plan_defaults():
    assert cli.make_plan("gof", {}) == GofPlan()
    assert cli.make_plan("pooling", {"k_range": (3, 6), "reps": 7}) == (
        PoolingPlan(k_range=(3, 6), n_reps=7))
    assert cli.make_plan("estimator",
                         {"sizes": (8, 9), "sigma": 2.0, "reps": 5}) == (
        EstimatorStudyPlan(sample_sizes=(8, 9), true_sd=2.0, n_reps=5))
    # run settings name no field, and the chain takes no replicate count
    assert cli.make_plan("mh", {"samples": 5, "burn_in": 1, "reps": 50,
                                "seed": 3, "out": "x", "figures": True,
                                "workers": 2}) == (
        MhConfig(n_samples=5, burn_in=1))


@pytest.mark.parametrize("name", cli._STUDIES)
def test_options_and_plan_fields_name_the_same_studies(name):
    # parse_config keeps a config file's values by OPTIONS[key].subcommands,
    # make_plan by the plan's fields: the two must agree on every study option
    fields = {f.name for f in dataclasses.fields(cli._STUDIES[name][0])}
    for key, option in OPTIONS.items():
        if key not in ("seed", "out", "figures", "workers"):
            assert (name in option.subcommands) == (
                cli.PLAN_FIELDS.get(key, key) in fields), key


# Each option's upper bound, where it has one; a float bound's "bound + 1"
# is the next float up.
OPTION_BOUNDS = {
    "reps": MAX_REPS, "N": MAX_ROW_DRAWS, "k_range": MAX_ROW_DRAWS, "p": 1.0,
    "burn_in": MAX_CHAIN_STEPS, "samples": MAX_CHAIN_STEPS,
    "proposal_sd": MAX_PROPOSAL_SD, "sizes": MAX_ROW_DRAWS,
    "sigma": MAX_TRUE_SD, "bins": MAX_ROW_DRAWS,
}


def _edge_values(key: str) -> list:
    values = [0, 1, -1, 10**400, "x"]
    bound = OPTION_BOUNDS.get(key)
    if isinstance(bound, int):
        values += [bound, bound + 1]
    elif bound is not None:
        values += [bound, math.nextafter(bound, math.inf)]
    return values


@pytest.mark.parametrize("key, subcommand", [
    (key, sub) for key, option in OPTIONS.items() for sub in option.subcommands
])
def test_option_space_is_parsed_or_a_usage_error(key, subcommand, tmp_path,
                                                 capsys):
    # every edge value of every option, by flag and by config file: either
    # parse_config returns, or it exits 2 naming the flag or the key in its
    # message.  Plans are built, nothing is run.
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "conf.json"
    for value in _edge_values(key):
        text = str(value)
        if key == "k_range":  # the edge value as the range's top
            text, value = f"2:{value}", value if value == "x" else [2, value]
        elif key == "sizes":
            value = value if value == "x" else [value]
        cfg.write_text(json.dumps({key: value}))
        cases = [([subcommand, "--config", str(cfg)], (flag, repr(key)))]
        if OPTIONS[key].parse is not None:
            cases.append(([subcommand, flag, text], (flag,)))
        for argv, names in cases:
            try:
                parse_config(argv)
            except SystemExit as exc:
                message = capsys.readouterr().err.strip().splitlines()[-1]
                assert exc.code == 2, (argv, message)
                assert any(name in message for name in names), (argv, message)


@pytest.mark.parametrize("key, subcommand", [
    (key, sub) for key, option in OPTIONS.items() if "all" not in option.subcommands
    for sub in option.subcommands
])
def test_small_study_values_run_or_are_a_usage_error(key, subcommand, tmp_path,
                                                     capsys):
    # every study option at 0, 1, -1, 2 and 3 runs through main, figures
    # and all, to exit 0 or to a usage error (2); never to a runtime error
    flag = "--" + key.replace("_", "-")
    size = (["--burn-in", "0", "--samples", "50"] if subcommand == "mh"
            else ["--reps", "2"])
    for value in (0, 1, -1, 2, 3):
        text = f"2:{value}" if key == "k_range" else str(value)
        argv = [subcommand, *size, flag, text, "--figures", "--out", str(tmp_path)]
        code = main(argv)
        assert code in (0, 2), (argv, capsys.readouterr().err)


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
        # the warning names each flag below its default, with its value
        [short] = [w for w in summary["warnings"] if "short chain" in w]
        assert "--burn-in 1000" in short and "--samples 1000" in short
        assert main(["mh", "--samples", "1000", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "mh_summary.json").read_text())
        [short] = [w for w in summary["warnings"] if "short chain" in w]
        assert "--samples 1000" in short and "--burn-in" not in short

    def test_estimator_report(self, tmp_path):
        code = main(
            ["estimator", "--reps", "100", "--sizes", "100,400",
             "--out", str(tmp_path), "--figures"]
        )
        assert code == 0
        lines = (tmp_path / "estimator_distributions.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 100  # two estimators, two sizes
        assert (tmp_path / "estimator_box.svg").exists()

    def test_zero_reps_is_not_the_default(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["gof", "--reps", "0", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--reps" in capsys.readouterr().err

    def test_non_finite_summary_is_runtime_error(self, tmp_path, monkeypatch,
                                                 capsys):
        run_gof = GofPlan.run

        def nan_summary(*args):
            tables, figs, summary, warnings = run_gof(*args)
            return tables, figs, {**summary, "mean_statistic": float("nan")}, warnings

        monkeypatch.setattr(GofPlan, "run", nan_summary)
        assert main(["gof", "--reps", "10", "--figures",
                     "--out", str(tmp_path)]) == 1
        assert "gof summary" in capsys.readouterr().err
        # the summary is serialised before the study's first write
        assert not list(tmp_path.glob("gof_*"))

    def test_unwritable_output_dir_fails_with_runtime_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["gof", "--reps", "10", "--out", str(blocker / "sub")])
        assert code == 1

    def test_failed_write_probe_is_runtime_error(self, tmp_path):
        # the directory exists, but the probe file's name is taken by a
        # directory, so the probe write fails before any study runs
        (tmp_path / ".writable").mkdir()
        assert main(["gof", "--reps", "10", "--out", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == [tmp_path / ".writable"]

    def test_all_runs_every_subcommand(self, tmp_path):
        config = parse_config(["all", "--seed", "3", "--reps", "50",
                               "--out", str(tmp_path)])
        docs = run_and_report(config)
        assert [doc["subcommand"] for doc in docs] == [
            "pooling", "mh", "estimator", "gof"
        ]
        # each summary records the versions its tables' bytes rest on
        environment = {"python": platform.python_version(),
                       "numpy": metadata.version("numpy"),
                       "scipy": metadata.version("scipy"),
                       "statlab": statlab.__version__}
        for name in ("pooling", "mh", "estimator", "gof"):
            doc = json.loads((tmp_path / f"{name}_summary.json").read_text())
            assert doc["environment"] == environment

    @pytest.mark.parametrize("argv", [
        ["pooling"], ["mh"], ["estimator"], ["gof"],
        ["pooling", "--k-range", "3:6"],
        ["mh", "--proposal-sd", "0.5", "--burn-in", "500"],
        ["estimator", "--sizes", "50,200", "--sigma", "2"],
        ["gof", "--sizes", "24,48"],
        ["all", "--reps", "50"],
    ])
    def test_summary_echoes_every_plan_field(self, argv, tmp_path):
        # each summary records the plan it ran: every field, with its value
        config = parse_config([*argv, "--out", str(tmp_path)])
        run_and_report(config)
        for name, plan in config.plans.items():
            doc = json.loads((tmp_path / f"{name}_summary.json").read_text())
            for field in dataclasses.fields(plan):
                value = getattr(plan, field.name)
                assert doc["summary"][field.name] == (
                    list(value) if isinstance(value, tuple) else value), (
                    name, field.name)

    def test_all_writes_what_each_study_writes_alone(self, tmp_path):
        # the studies, run one at a time in reverse order, write the same
        # bytes as all does, summaries up to their timestamps: no study reads
        # state that another leaves behind
        alone, together = tmp_path / "alone", tmp_path / "together"
        for name in ("gof", "estimator", "mh", "pooling"):
            reps = [] if name == "mh" else ["--reps", "50"]
            assert main([name, *reps, "--figures", "--out", str(alone)]) == 0
        assert main(["all", "--reps", "50", "--figures",
                     "--out", str(together)]) == 0
        files = sorted(p.name for p in alone.iterdir())
        assert sorted(p.name for p in together.iterdir()) == files
        assert len(files) == 4 + 9 + 5  # summaries, tables, figures
        for name in files:
            a, b = (alone / name).read_bytes(), (together / name).read_bytes()
            if name.endswith("_summary.json"):
                a, b = json.loads(a), json.loads(b)
                assert a.pop("timestamp") and b.pop("timestamp")
            assert a == b, name
