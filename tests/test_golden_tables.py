"""Golden SHA-256 digests of the tables and SVG figures the CLI writes, and
the exact summary numbers of each study's default run.

A change that claims to alter no numbers proves it here: every digest below
was recorded from the CLI before the code it pins was last rewritten, and must
still match byte for byte.  Every digest run writes its figures too.
"""

import hashlib
import json

import pytest

from statlab.cli import main

# Every file each short-replicate subcommand writes at its default settings.
DEFAULT_TABLES = {
    "pooling": {
        "pooling_candidates.csv":
            "4fac5f8804e1e98c29b17c8736d6c5e58a0d9b5b7c95c8a79ef655fa5eab70e5",
        "pooling_cost_curve.csv":
            "1cfea9a5b28978c74dc7789f3eed39f7ce6cd1175d784b708b92e91a12c71805",
        "pooling_cost_curve.svg":
            "40c326cc1ef3476cd2cbc94e6a90c04ae76a6b01bac7e02db32496387dc460fe",
    },
    "gof": {
        "gof_statistics.csv":
            "ca97685cd32199118da8792623f2448b991250a3ea7643f20ac760ee83a3a572",
        "gof_overlay_n16.csv":
            "f5c383647a32fe377f678b622398cff172f33bd5125df3658f8900d4ab449d9e",
        "gof_overlay_n64.csv":
            "483552240f4e1c29d624d3c1ab4086bb974e591b3cd7669b2fb34f57d6cfeb2e",
        "gof_overlay_n16.svg":
            "4aaee22089d6c2d9a0e4e6a3475b48c3826ce9e7df3132d9b312ca40850a6e3d",
        "gof_overlay_n64.svg":
            "1b93ffb9b3c7de50ad0a77da42f38068eff40557ae32d9d00e043e50dcc4a624",
    },
    "estimator": {
        "estimator_distributions.csv":
            "72c7d88370031a67bc3bff28c192e83e2171d0a6ba843b712e89d4e36912dfea",
        "estimator_summary.csv":
            "2e4dcc66f9ef888c09a0f7f2a985ec5030664eeaeb9e08163bcdca2d4719e898",
        "estimator_box.svg":
            "0ce01ca02316c79aa64bebb606a058f5b9da7ee49c5b801d98d91e5f9845873b",
    },
}

# (flags, pooling files) for non-default pooling runs.  N = 60 puts many
# replicates in one block of draws, N = 16400 one replicate per block, drawn
# on two threads.  150 such rows are more than two runs of 64 and not a
# multiple of 64, so however the rows are handed out, both threads take
# several and one takes a short tail.  The worker count must change nothing.
# At p = 0.5, p * 2**53 is a whole number, so p is itself a possible uniform
# and the strict ``<`` of the Bernoulli draw decides the threshold exactly.
POOLING_RUNS = [
    (["--N", "60", "--k-range", "2:6", "--p", "0.2", "--reps", "3000"], {
        "pooling_candidates.csv":
            "88fcca8297bf3cd17a68bfe4f21462ee6f717acc591ee3ae7bc20ca89881dae2",
        "pooling_cost_curve.csv":
            "3084cec2a4f3a554665383acb8f9294281b110978564ead2c3243c7502a1a35d",
        "pooling_cost_curve.svg":
            "b16fd46ae462d999c0e6038b5abb61ceca750ebafc15e1781d655104b364d2fc",
    }),
    (["--N", "16400", "--k-range", "2:5", "--reps", "50"], {
        "pooling_candidates.csv":
            "72c41550b434f23fd798ac95dde598486e57632b7741cc0b29dbe36b6eb42e8c",
        "pooling_cost_curve.csv":
            "bb97afd3988ceeb910a1ce487dbaaba1af02a28bd4b6d41ffcd0400dccda7386",
        "pooling_cost_curve.svg":
            "d1fa7eaaff46db257fe8a6245ffbb5df191033e7da154779ddcf7dab92a92182",
    }),
    (["--workers", "2"], DEFAULT_TABLES["pooling"]),
    (["--N", "16400", "--k-range", "2:5", "--reps", "150"], {
        "pooling_candidates.csv":
            "f369b9e241d35e389439121ed3478d4d65834a85fef89b8748a2f67d481cff47",
        "pooling_cost_curve.csv":
            "bb97afd3988ceeb910a1ce487dbaaba1af02a28bd4b6d41ffcd0400dccda7386",
        "pooling_cost_curve.svg":
            "d1fa7eaaff46db257fe8a6245ffbb5df191033e7da154779ddcf7dab92a92182",
    }),
    (["--N", "16400", "--k-range", "2:5", "--reps", "20", "--p", "0.5"], {
        "pooling_candidates.csv":
            "aa86dd88f9ba17d2caea3483265c35db45d2d7a157feb54aec291719295a8a05",
        "pooling_cost_curve.csv":
            "9832f2bd111c9915d463687019236c0a66e7d8de05ae4fece07bd05d7edd01f4",
        "pooling_cost_curve.svg":
            "2a2fbec0f70037df442a4fc27c4ed254c1b5a10e438fc1b41d3a384d96ba7e28",
    }),
]

# (flags, gof files) for non-default gof runs: four cells (df = 3) and a
# sample size, 8, of only two counts per cell; and two cells (df = 1), whose
# reference averages come from the distribution function, not quadrature.
GOF_RUNS = [
    (["--bins", "4", "--sizes", "8,40", "--reps", "300"], {
        "gof_statistics.csv":
            "b1299d9d22a9892e5d72fbe90b8700afc23598d04d67859f7a32762337968783",
        "gof_overlay_n8.csv":
            "3f34f67cf07914c7dfb78c8757bf9f24e3f06051e5360d6c3c0fa3f50fd8c218",
        "gof_overlay_n40.csv":
            "9f970b5c22caa9aef622831c71a50a9912a64667db75b4543c5ae497b6c74f9e",
        "gof_overlay_n8.svg":
            "1993eca0a8593311acc71cd7b246067d78d8e6b23a527cfb7242f51a54abeaca",
        "gof_overlay_n40.svg":
            "08e6edcad711d3e1f230cc702a65c8d9b5f01946ce4d8fd691746716f9563202",
    }),
    (["--bins", "2", "--reps", "2000"], {
        "gof_statistics.csv":
            "0a9a47bff3c932f1a9fce83dbd646d650c7e4b3b5b642e4910adb93ae2448d61",
        "gof_overlay_n16.csv":
            "146eeb480cdab0e32d497430c86bed6f546e7c6278697567813dd7623dac7214",
        "gof_overlay_n64.csv":
            "0dba690d5785c5beb2272939eafbec6afed907c5d50d1e1e676bf6fe40661f68",
        "gof_overlay_n16.svg":
            "f8d131b2f5723b2be23d54d6283f21ed3be8fafd6f14633512f131cdc389e644",
        "gof_overlay_n64.svg":
            "2bd5409d983f3e88ff7cbf003e0e5b8ada1e4ca53d098941d630e3e64388ccd9",
    }),
]

# mh_true_density.csv depends on no chain setting, so one digest covers all.
MH_TRUE_DENSITY = "c60aebabf934808b56771b6d9bb53cc424b8da48ed79487074317eebf14d5add"

# (flags, mh_histogram.csv digest).  The burn-in and sample counts put the
# burn-in/sampling boundary before, on and after multiples of 2**16 steps.
MH_HISTOGRAM = [
    ([], "5b24c18dbe129e67acb031cd416ded4f463b8ee278c313af2e31f4305d2c9a3a"),
    (["--proposal-sd", "2.5", "--burn-in", "0", "--samples", "100000"],
     "5bf8ad827f818ef9cadb2b50ca9cd58b2814fd62df07e41718677d3b029d8eed"),
    (["--seed", "1", "--proposal-sd", "0.3", "--burn-in", "65536",
      "--samples", "65536"],
     "b19bf1397b447c19d632acfe9439ff99771c54fcfe3807f68565e4c7dce19c99"),
    (["--seed", "1", "--proposal-sd", "1.0", "--burn-in", "1000",
      "--samples", "140000"],
     "d156de6c5e1ac425c8e3a44a1687934ead113f46b1b5d7e258e3c6cb5efe182d"),
    (["--seed", "2", "--proposal-sd", "2.5", "--burn-in", "30000",
      "--samples", "100000"],
     "f07ecd1dd944bc971a7c1a76f7ec964852b811bde63fadb270dd0f8c90410739"),
    (["--seed", "2", "--proposal-sd", "0.3", "--burn-in", "131073",
      "--samples", "10000"],
     "07b3d4d0214a9579c17e4a72c8dbfb42419a361f361863c1640ce0f97cda0912"),
]

# mh_density.svg of each MH_HISTOGRAM run, keyed by its histogram's digest.
MH_DENSITY_SVG = {
    "5b24c18dbe129e67acb031cd416ded4f463b8ee278c313af2e31f4305d2c9a3a":
        "f708ac56a2b85d4dca8c660f8d95ad950b47b34207960068f2b6c638caa2a67a",
    "5bf8ad827f818ef9cadb2b50ca9cd58b2814fd62df07e41718677d3b029d8eed":
        "2f7037d3b94184a3d536b3dde7c6946613731baef65e87f14911b285bda5db59",
    "b19bf1397b447c19d632acfe9439ff99771c54fcfe3807f68565e4c7dce19c99":
        "4a49fa01b99491b23704367c5318fc98bb473ac303aca29bfd1037e7d7e4e866",
    "d156de6c5e1ac425c8e3a44a1687934ead113f46b1b5d7e258e3c6cb5efe182d":
        "c7537db756c8abf732fc9a91e1b701686f6964e0f777527154d14426e9a13a69",
    "f07ecd1dd944bc971a7c1a76f7ec964852b811bde63fadb270dd0f8c90410739":
        "2921b3d17867a26fb45d175e37f07a2673404f4a5c81c897f327194d6b58ea53",
    "07b3d4d0214a9579c17e4a72c8dbfb42419a361f361863c1640ce0f97cda0912":
        "7a2b83c4df7088307586abe0b120716e1f090459a7b04471e2b3265ca8e30c66",
}


# The summary block of each study's summary JSON at its default settings.  The
# tables carry these numbers to 10 digits; here they must match bit for bit.
DEFAULT_SUMMARIES = {
    "pooling": {
        "N": 5000,
        "best_integer_expected_tests": 2131.0953125,
        "best_integer_k": 5,
        "bisection_cross_check_k": 5.022385470569134,
        "continuous_optimum_at_boundary": False,
        "continuous_optimum_k": 5.022385051036843,
        "k_range": [2, 10],
        "n_reps": 1000,
        "p": 0.05,
        "pooling_helps": True,
        "pooling_helps_integer": True,
        "savings_ratio_at_best_k": 2.346211345251598,
    },
    "mh": {
        "acceptance_rate": 0.55231,
        "burn_in": 100000,
        "density_distance": 0.015186424808178112,
        "n_samples": 100000,
        "normalizing_constant": 0.14685127119275276,
        "proposal_sd": 1.0,
        "sample_mean": -0.001027524424315297,
        "sample_variance": 0.5751136544192444,
        "target_variance_quadrature": 0.5749852162738539,
    },
    "gof": {
        "bins": 8,
        "df": 7,
        "mean_statistic": {"16": 6.9569, "64": 6.98395},
        "n_reps": 10000,
        "sample_sizes": [16, 64],
        "shape_distance": {"16": 0.15394768602908, "64": 0.012313328285914568},
    },
    "estimator": {
        "iqr_of_distribution": {
            "iqr_n100": 0.5044156899520562,
            "iqr_n400": 0.26839886964665327,
            "s_n100": 0.3023897457200104,
            "s_n400": 0.1485791546457853,
        },
        "n_reps": 1000,
        "sample_sizes": [100, 400],
        "true_sd": 3.141592653589793,
    },
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("flags, histogram", MH_HISTOGRAM)
def test_mh_tables(flags, histogram, tmp_path):
    assert main(["mh", *flags, "--figures", "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path / "mh_histogram.csv") == histogram
    assert _digest(tmp_path / "mh_true_density.csv") == MH_TRUE_DENSITY
    assert _digest(tmp_path / "mh_density.svg") == MH_DENSITY_SVG[histogram]


def _check_tables(argv, tables, out):
    assert main([*argv, "--figures", "--out", str(out)]) == 0
    assert {svg.name for svg in out.glob("*.svg")} <= tables.keys()
    for name, digest in tables.items():
        assert _digest(out / name) == digest, name


@pytest.mark.parametrize("subcommand", sorted(DEFAULT_TABLES))
def test_default_tables(subcommand, tmp_path):
    _check_tables([subcommand], DEFAULT_TABLES[subcommand], tmp_path)


@pytest.mark.parametrize("flags, tables", POOLING_RUNS)
def test_pooling_tables(flags, tables, tmp_path):
    _check_tables(["pooling", *flags], tables, tmp_path)


@pytest.mark.parametrize("flags, tables", GOF_RUNS)
def test_gof_tables(flags, tables, tmp_path):
    _check_tables(["gof", *flags], tables, tmp_path)


@pytest.mark.parametrize("subcommand", sorted(DEFAULT_SUMMARIES))
def test_default_summaries(subcommand, tmp_path):
    assert main([subcommand, "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / f"{subcommand}_summary.json").read_text())
    assert written["summary"] == DEFAULT_SUMMARIES[subcommand]
