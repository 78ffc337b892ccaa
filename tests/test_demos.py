"""The walkthroughs in demos/ run to the end.

Each runs in its own Python, as a reader would run it, with RuntimeWarning an
error as in the rest of the suite.  pooled_testing_walkthrough.py, at about
3 s, costs more than the other three together, but it is the only caller of
``pooling.simulate_pooling`` outside the library and its tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "chi_square_null_walkthrough.py",
    "estimator_efficiency_walkthrough.py",
    "mh_sampling_walkthrough.py",
    "pooled_testing_walkthrough.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
