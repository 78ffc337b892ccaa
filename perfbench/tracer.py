"""Outside-in tracer for statlab: spans from wrappers, with no change to the program.

`Tracer.install()` runs in a measured child process after `import statlab.cli`.
It replaces every public statlab function at each place it is looked up: the
module attributes (so `estimators.quantile_type7` is wrapped as well as
`numerics.quantile_type7`), dicts of functions such as `report._RUNNERS`, the
public methods of statlab classes (on the class, e.g. `RngStream.raw`), and the
`task` callback handed to `simkit.run_replicates`.

Each call that returns records one span: (id, name, start, end, parent,
thread, v1, v2), where v1/v2 carry a count measured at that boundary (uniforms
drawn, quadrature evaluations, table rows and bytes, SVG bytes, MH steps).  Spans go to a
per-thread int64 buffer in memory and `dump()` writes them all at the end.
`derive()` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "simkit", "pooling", "mh", "estimators", "gof", "numerics",
          "report", "figures")

# Scalar integrands and optimiser objectives run once per quadrature or
# optimiser evaluation, thousands of times per run; a span each would make the
# tracer's own cost dominate numerics.quad_s.  numerics.quad_evals counts them.
UNTRACED = frozenset({
    "gof.chisq_density",
    "mh.unnormalized",
    "mh.log_unnormalized",
    "pooling.expected_tests",
    "pooling.expected_tests_per_person",
    "pooling.optimality_residual",
})

TASK = "simkit.task"
FIELDS = 8  # id, name index, start ns, end ns, parent id, thread id, v1, v2


def _table_size(args, result):
    data = Path(args[0]).read_bytes()
    return data.count(b"\n") - 1, len(data)  # rows below the header, bytes


def _svg_size(args, result):
    return len(result.encode("utf-8")), 0


# Counts taken at a boundary, from the call's arguments and result.
_VALUES = {
    "simkit.RngStream.raw": lambda a, r: (r.size, 0),
    "numerics.integrate_interval": lambda a, r: (r.evaluations, 0),
    "numerics.integrate_real_line": lambda a, r: (r.evaluations, 0),
    "mh.run_chain": lambda a, r: (r.config.burn_in + r.config.n_samples, 0),
    "report.write_table": _table_size,
    "figures.line_chart": _svg_size,
    "figures.histogram_chart": _svg_size,
    "figures.box_chart": _svg_size,
}


class Tracer:
    def __init__(self):
        self._names: list[str] = [TASK]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array] = []
        self._main_stack: list[int] = self._state()[0]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], array("q"))
            with self._lock:
                self._buffers.append(state[1])
            self._local.state = state
        return state

    def _wrap(self, fn, name: str, index: int | None = None):
        if index is None:
            index = len(self._names)
            self._names.append(name)
        value_of = _VALUES.get(name)
        is_harness = name == "simkit.run_replicates"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, buf = self._state()
            # A pool worker's first span belongs to the call the main thread
            # is blocked in (run_replicates), which keeps its stack unchanged
            # until the workers are done.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            if is_harness:
                args, kwargs = self._wrap_task(args, kwargs)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            v1, v2 = value_of(args, result) if value_of else (0, 0)
            buf.extend((sid, index, start, end, parent,
                        threading.get_native_id(), v1, v2))
            return result

        return wrapper

    def _wrap_task(self, args, kwargs):
        """Wrap run_replicates' `task` argument; every task shares one name."""
        if "task" in kwargs:
            kwargs = dict(kwargs, task=self._wrap(kwargs["task"], TASK, index=0))
        else:
            args = (*args[:3], self._wrap(args[3], TASK, index=0), *args[4:])
        return args, kwargs

    def install(self) -> None:
        """Wrap statlab's public functions where they are looked up."""
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            if not (inspect.isfunction(fn)
                    and fn.__module__.startswith("statlab.")):
                return None
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
            if name in UNTRACED or "<" in name:
                return None
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
            return wrappers[id(fn)]

        for layer in LAYERS:
            module = importlib.import_module(f"statlab.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        w = wrapped(value)
                        if w is not None:
                            obj[key] = w
                elif attr.startswith("_"):
                    continue
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth_name, meth in list(vars(obj).items()):
                        w = None if meth_name.startswith("_") else wrapped(meth)
                        if w is not None:
                            setattr(obj, meth_name, w)
                else:
                    w = wrapped(obj)
                    if w is not None:
                        setattr(module, attr, w)

    def dump(self, path: Path) -> None:
        """Write every recorded span."""
        with self._lock:
            buffers = list(self._buffers)
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self._names}).encode() + b"\n")
            for buf in buffers:
                buf.tofile(fh)


_QUAD = ("numerics.integrate_interval", "numerics.integrate_real_line")
_RUNNERS = ("report.run_pooling", "report.run_mh", "report.run_estimator",
            "report.run_gof")
_CHARTS = ("figures.line_chart", "figures.histogram_chart", "figures.box_chart")


def derive(path: Path) -> dict[str, float]:
    """Per-layer metrics from one span file (all but trace.overhead_s)."""
    with open(path, "rb") as fh:
        names = json.loads(fh.readline())["names"]
        spans = np.frombuffer(fh.read(), dtype=np.int64).reshape(-1, FIELDS)
    sid, idx, start, end, parent = (spans[:, i] for i in range(5))
    v1, v2 = spans[:, 6], spans[:, 7]
    dur = end - start
    row_of = np.full(int(sid.max(initial=0)) + 1, -1)
    row_of[sid] = np.arange(len(sid))
    parent_row = np.where(parent > 0, row_of[parent], -1)

    def mask(*wanted):
        return np.isin(idx, [i for i, n in enumerate(names) if n in wanted])

    def top(*wanted):
        """Spans of `wanted` not nested inside another span of `wanted`."""
        m = mask(*wanted)
        nested = np.zeros(len(sid), dtype=bool)
        anc = parent_row.copy()
        while (anc >= 0).any():
            live = anc >= 0
            nested[live] |= m[anc[live]]
            anc[live] = parent_row[anc[live]]
        return m & ~nested

    def seconds(m):
        return float(dur[m].sum()) / 1e9

    def self_seconds(m):
        """Duration minus the part of it covered by direct children."""
        total = 0
        for r in np.flatnonzero(m):
            kids = np.flatnonzero(parent_row == r)
            lo = np.clip(start[kids], start[r], end[r])
            hi = np.clip(end[kids], start[r], end[r])
            order = np.argsort(lo, kind="stable")
            lo, hi = lo[order], hi[order]
            reach = np.maximum.accumulate(np.concatenate(([start[r]], hi)))[:-1]
            covered = np.maximum(hi - np.maximum(lo, reach), 0).sum()
            total += int(dur[r] - covered)
        return total / 1e9

    raw = mask("simkit.RngStream.raw")
    streams = mask("simkit.make_stream")
    tasks = mask(TASK)
    quad = top(*_QUAD)
    tables = mask("report.write_table")
    charts = top(*_CHARTS)
    chains = mask("mh.run_chain")
    analytic = [n for n in names
                if n.startswith("pooling.") and n != "pooling.simulate_pooling"]
    return {
        "simkit.stream_s": seconds(streams),
        "simkit.streams": int(streams.sum()),
        "simkit.draw_s": seconds(raw),
        "simkit.draws": int(v1[raw].sum()),
        "simkit.bytes_drawn": 8 * int(v1[raw].sum()),
        "simkit.task_s": seconds(top(TASK)),
        "simkit.harness_s": self_seconds(mask("simkit.run_replicates")),
        "simkit.replicates": int(tasks.sum()),
        "gof.statistic_s": seconds(top("gof.pearson_statistic",
                                       "gof.bin_uniform")),
        "gof.reference_s": seconds(top("gof.binned_chisq_density")),
        "gof.reference_calls": int(mask("gof.binned_chisq_density").sum()),
        "estimators.estimate_s": seconds(top("estimators.sigma_hat_iqr",
                                             "estimators.sigma_hat_s")),
        "pooling.simulate_s": seconds(top("pooling.simulate_pooling")),
        "pooling.analytic_s": seconds(top(*analytic)),
        "mh.chain_s": seconds(chains),
        "mh.steps": int(v1[chains].sum()),
        "mh.reference_s": seconds(top("mh.binned_true_density")),
        "mh.reference_calls": int(mask("mh.binned_true_density").sum()),
        "numerics.quad_s": seconds(quad),
        "numerics.quad_calls": int(quad.sum()),
        "numerics.quad_evals": int(v1[quad].sum()),
        "numerics.summarize_calls": int(mask("numerics.summarize").sum()),
        "numerics.quantile_calls": int(mask("numerics.quantile_type7").sum()),
        "report.write_s": seconds(top("report.write_table")),
        "report.rows_written": int(v1[tables].sum()),
        "report.bytes_written": int(v2[tables].sum()),
        "report.runner_self_s": self_seconds(mask(*_RUNNERS)),
        "figures.svg_s": seconds(charts),
        "figures.svg_bytes": int(v1[charts].sum()),
        "cli.parse_s": seconds(top("cli.parse_config")),
        "trace.spans": len(sid),
    }
