"""Golden SHA-256 digests of the tables the CLI writes.

A change that claims to alter no numbers proves it here: every digest below
was recorded from the CLI before the code it pins was last rewritten, and must
still match byte for byte.
"""

import hashlib

import pytest

from statlab.cli import main

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
