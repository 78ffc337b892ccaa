"""Golden SHA-256 digests of the tables the CLI writes.

A change that claims to alter no numbers proves it here: every digest below
was recorded from the CLI before the code it pins was last rewritten, and must
still match byte for byte.
"""

import hashlib

import pytest

from statlab.cli import main

# Every table each short-replicate subcommand writes at its default settings.
DEFAULT_TABLES = {
    "pooling": {
        "pooling_candidates.csv":
            "4fac5f8804e1e98c29b17c8736d6c5e58a0d9b5b7c95c8a79ef655fa5eab70e5",
        "pooling_cost_curve.csv":
            "1cfea9a5b28978c74dc7789f3eed39f7ce6cd1175d784b708b92e91a12c71805",
    },
    "gof": {
        "gof_statistics.csv":
            "ca97685cd32199118da8792623f2448b991250a3ea7643f20ac760ee83a3a572",
        "gof_overlay_n16.csv":
            "f5c383647a32fe377f678b622398cff172f33bd5125df3658f8900d4ab449d9e",
        "gof_overlay_n64.csv":
            "483552240f4e1c29d624d3c1ab4086bb974e591b3cd7669b2fb34f57d6cfeb2e",
    },
    "estimator": {
        "estimator_distributions.csv":
            "72c7d88370031a67bc3bff28c192e83e2171d0a6ba843b712e89d4e36912dfea",
        "estimator_summary.csv":
            "2e4dcc66f9ef888c09a0f7f2a985ec5030664eeaeb9e08163bcdca2d4719e898",
    },
}

# (flags, pooling tables) for non-default pooling runs.  N = 60 puts many
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
    }),
    (["--N", "16400", "--k-range", "2:5", "--reps", "50"], {
        "pooling_candidates.csv":
            "72c41550b434f23fd798ac95dde598486e57632b7741cc0b29dbe36b6eb42e8c",
        "pooling_cost_curve.csv":
            "bb97afd3988ceeb910a1ce487dbaaba1af02a28bd4b6d41ffcd0400dccda7386",
    }),
    (["--workers", "2"], DEFAULT_TABLES["pooling"]),
    (["--N", "16400", "--k-range", "2:5", "--reps", "150"], {
        "pooling_candidates.csv":
            "f369b9e241d35e389439121ed3478d4d65834a85fef89b8748a2f67d481cff47",
        "pooling_cost_curve.csv":
            "bb97afd3988ceeb910a1ce487dbaaba1af02a28bd4b6d41ffcd0400dccda7386",
    }),
    (["--N", "16400", "--k-range", "2:5", "--reps", "20", "--p", "0.5"], {
        "pooling_candidates.csv":
            "aa86dd88f9ba17d2caea3483265c35db45d2d7a157feb54aec291719295a8a05",
        "pooling_cost_curve.csv":
            "9832f2bd111c9915d463687019236c0a66e7d8de05ae4fece07bd05d7edd01f4",
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


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("flags, histogram", MH_HISTOGRAM)
def test_mh_tables(flags, histogram, tmp_path):
    assert main(["mh", *flags, "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path / "mh_histogram.csv") == histogram
    assert _digest(tmp_path / "mh_true_density.csv") == MH_TRUE_DENSITY


def _check_tables(argv, tables, out):
    assert main([*argv, "--out", str(out)]) == 0
    for name, digest in tables.items():
        assert _digest(out / name) == digest, name


@pytest.mark.parametrize("subcommand", sorted(DEFAULT_TABLES))
def test_default_tables(subcommand, tmp_path):
    _check_tables([subcommand], DEFAULT_TABLES[subcommand], tmp_path)


@pytest.mark.parametrize("flags, tables", POOLING_RUNS)
def test_pooling_tables(flags, tables, tmp_path):
    _check_tables(["pooling", *flags], tables, tmp_path)
