"""Report emission: CSV tables, JSON summaries, and SVG figures per subcommand.

Each study plan's ``run(root_seed)`` computes and returns tables (file name ->
columns), figures (file name -> a call that draws its SVG text), a summary and
warnings; ``run_and_report`` alone writes them, and draws the figures only
when the run asks for them.  Each written summary also holds every field of
the plan that made it.  Rerunning with the same configuration produces
byte-identical tables.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__

# The versions byte-identity rests on: numpy's Philox and Generator.random,
# and scipy's ndtri.
ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__, "statlab": __version__}


@dataclass
class RunConfig:
    plans: dict  # study name -> its plan, in the order the studies run
    root_seed: int
    output_dir: Path
    emit_figures: bool = False


# Rows formatted per write: a chunk's cells and text take under 200 KB at once.
_CHUNK_ROWS = 1024
# The cell format of a column by dtype kind: integers as they are, floats to
# 10 significant digits with a '.' decimal (the bytes of "{:.10g}".format,
# inf, nan and -0 included), strings unchanged.
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.10g", "U": "%s"}


def write_table(path: Path, columns: dict[str, Sequence]) -> None:
    """Write a CSV table given as header name -> column, in that order.

    Each row is formatted by one ``%`` format, ``_CHUNK_ROWS`` rows at a
    time, so the strings of a long table are never all held at once.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    if len({len(a) for a in arrays}) > 1:
        raise ValueError("table columns must have equal length")
    for a in arrays:
        if a.dtype.kind not in _CELL_FORMATS:
            raise TypeError(f"cannot format a column of dtype {a.dtype}")
    row = ",".join(_CELL_FORMATS[a.dtype.kind] for a in arrays) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _CHUNK_ROWS):
            chunk = [a[start:start + _CHUNK_ROWS].tolist() for a in arrays]
            fh.write("".join(map(row.__mod__, zip(*chunk))))


def run_and_report(config: RunConfig) -> list[dict]:
    """Run the configured subcommand(s), write their tables, figures and
    summaries, and return the summary documents written."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".writable"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc

    docs = []
    for name, plan in config.plans.items():
        tables, figs, summary, warnings = plan.run(config.root_seed)
        # every chart is drawn and the summary serialised before the study's
        # first file is written, so a chart or summary that fails leaves
        # nothing of the study on disk
        svgs = ({fig: draw() for fig, draw in figs.items()}
                if config.emit_figures else {})
        doc = {
            "tool": "statlab",
            "version": __version__,
            "environment": dict(ENVIRONMENT),
            "subcommand": name,
            "root_seed": config.root_seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "tables": list(tables),
            "figures": list(svgs),
            "warnings": warnings,
            "summary": {**asdict(plan), **summary},
        }
        try:
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a NaN or infinity, which JSON cannot hold
            raise ValueError(f"{name} summary: {exc}") from exc
        for table, columns in tables.items():
            write_table(out / table, columns)
        for fig, svg in svgs.items():
            (out / fig).write_text(svg)
        (out / f"{name}_summary.json").write_text(text + "\n")
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        docs.append(doc)
    return docs
