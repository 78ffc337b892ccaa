"""The reproducibility contract over the whole pipeline: no layout constant
changes what a run writes.

Seven constants decide only how work is laid out: the engine's block, span and
short-row widths and its helper-thread count, the MH chain's chunk, the
histogram's slice and the table writer's chunk.  Each argv below is run once
as shipped and again under each combination of patched values; every table,
SVG and summary (its timestamp aside) must come out the same.  The argvs' rows
lie at and past ``_SHORT_ROW_DRAWS`` (64 draws), and under the small block
widths below a row alone fills a block, so 0, 2 or 3 helper threads run too.

One exception is known: mh's summary mean and variance merge per-chunk sums,
so ``mh._CHUNK_STEPS`` moves their last bits (by an ulp or two); they are
compared to a relative 1e-14, everything else byte for byte.
"""

import json

import pytest

from statlab import mh, numerics, report, simkit
from statlab.cli import main

ARGVS = [
    ["pooling", "--N", "72", "--k-range", "2:6", "--reps", "150"],
    ["estimator", "--sizes", "64,65", "--reps", "150"],
    ["gof", "--sizes", "64,72", "--reps", "150"],
    ["mh", "--burn-in", "5", "--samples", "9000"],
]

CONSTANTS = [(simkit, "_BLOCK_VALUES"), (simkit, "_RUN_ROWS"),
             (simkit, "_SHORT_ROW_DRAWS"), (simkit, "_HELPERS"),
             (mh, "_CHUNK_STEPS"), (numerics, "_HISTOGRAM_SLICE"),
             (report, "_CHUNK_ROWS")]

# One value per constant above, in that order.  Blocks of 100 and 65 words
# hold one row of every argv, so 2 and 3 helpers run; a block of 130 holds
# one 72-draw row (pooling's and gof's), run with no helper, and one of 144
# two rows of every width; a short-row bound of 0 re-keys every row and one of 2**20
# draws every row by the array Philox; an mh chunk of 9004 steps leaves a
# one-step chunk of the 9005.
LAYOUTS = [
    (100, 1, 64, 2, 7, 7, 1),
    (130, 3, 1, 0, 1000, 500, 7),
    (1000, 2, 100, 1, 9004, 9000, 300),
    (65, 5, 65, 3, 13, 3, 2),
    (144, 7, 0, 2, 4095, 8191, 1023),
    (simkit._BLOCK_VALUES, 64, 1 << 20, 1, 100, 64, 2),
]
CHUNK_SUMMED = ("sample_mean", "sample_variance")


def _outputs(out):
    for argv in ARGVS:
        assert main([*argv, "--figures", "--out", str(out)]) == 0
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            del doc["timestamp"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("shipped"))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_layout_constants_change_no_output(layout, shipped, tmp_path,
                                           monkeypatch):
    for (module, name), value in zip(CONSTANTS, layout):
        monkeypatch.setattr(module, name, value)
    outputs = _outputs(tmp_path)
    now = outputs["mh_summary.json"]["summary"]
    then = shipped["mh_summary.json"]["summary"]
    for key in CHUNK_SUMMED:
        assert now[key] == pytest.approx(then[key], rel=1e-14, abs=0)
        now[key] = then[key]
    assert outputs == shipped
