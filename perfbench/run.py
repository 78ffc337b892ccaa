"""statlab benchmark: wall time to a correct, reproducible report.

Usage, from the repository root:

    python3 perfbench/run.py --workload replicates-small --seed 1 --seconds 30 --trace 0

A workload is a list of `statlab.cli.main(argv)` invocations.  Each measured
process (perfbench/child.py) runs the whole list once, in a fresh Python with
BLAS pools pinned to one thread, so a process uses at most the two worker
threads `--workers 2` asks for.  The loop is closed with one client: the next
process starts when the previous one has exited, until `--seconds` have passed.
Every process's tables are checked (perfbench/checks.py).

With `--trace 0` the last stdout line carries the end-to-end metrics, each the
median over this run's processes:
  wall_s       spawn to exit of one process
  setup_s      spawn until `import statlab.cli` returns (numpy and scipy too);
               also sampled by an import-only process after each measured one,
               so the samples spread over the whole run
  work_per_s   units of work (replicates, uniforms, MH transitions) per second
               spent inside `main`
  peak_rss_mb  peak resident set size of one process
With `--trace 1`, traced and untraced processes alternate; the last line
carries the per-layer metrics of perfbench/tracer.py (times are medians over
traced processes, counts must repeat exactly) and trace.overhead_s, the median
over pairs of one traced process's wall_s minus that of the untraced process
run just before it.  It is informational: only replicates-small makes enough
spans (320k) for the tracer's cost to exceed the run-to-run spread of wall_s;
on draws-large (40k) and chain-long (900) the figure is noise, often negative.

Failed checks over checks attempted (check_fail_frac) is the result line's
`failed` / `attempted`.  The table digests in perfbench/reference.json exist
for a few seeds; any other seed gets the statistical checks only.  The full
record, with host facts and every sample, goes to
.perfbench_work/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20070420  # statlab's own default root seed
MIN_PROCESSES = 3  # measured processes per run, whatever --seconds says
CHILD_TIMEOUT_S = 90
RUN_LIMIT_S = 150  # stop starting processes after this, to exit within 180 s


@dataclass(frozen=True)
class Workload:
    unit: str
    work: int  # units of work in one pass of the invocations
    invocations: tuple[tuple[str, ...], ...]


WORKLOADS = {
    "replicates-small": Workload(
        unit="replicates",
        work=2 * 20_000 + 2 * 5_000,  # two sample sizes each
        invocations=(("gof", "--reps", "20000", "--figures"),
                     ("estimator", "--reps", "5000", "--figures")),
    ),
    "draws-large": Workload(
        unit="uniforms",
        work=5 * 2_000 * 20_000,  # k in {2, 4, 5, 8, 10} divide N
        invocations=(("pooling", "--N", "20000", "--k-range", "2:10",
                      "--reps", "2000", "--workers", "2", "--figures"),),
    ),
    "chain-long": Workload(
        unit="transitions",
        work=1_000_000 + 2_000_000,
        invocations=(("mh", "--burn-in", "1000000", "--samples", "2000000",
                      "--figures"),),
    ),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run here; exit without a result."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def code_digest(root: Path) -> str:
    """Hash of statlab's source and of this benchmark, which decides what is traced."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "statlab").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class Bench:
    def __init__(self, root: Path, spec: dict, name: str, seed: int):
        self.root = root
        self.end_to_end = [m["name"] for m in spec["end_to_end"]]
        # Count metrics repeat exactly across runs of one commit.
        self.counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work_dir = root / ".perfbench_work"
        self.out_dir = self.work_dir / "out"
        self.work_dir.mkdir(exist_ok=True)
        refs = json.loads((HERE / "reference.json").read_text())
        self.digests = refs["digests"].get(name, {}).get(str(seed))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.env.pop("STATLAB_OUT", None)
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"perfbench: CHECK FAILED {name}: {detail}", file=sys.stderr)

    def spawn(self, invocations, spans: Path | None = None) -> dict:
        """Run one child process; returns its record with wall_s and setup_s."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argvs = [[*inv, "--seed", str(self.seed), "--out", str(self.out_dir)]
                 for inv in invocations]
        spec = json.dumps({"invocations": argvs,
                           "spans": str(spans) if spans else None})
        t0 = _now_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), spec], cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"a statlab process ran over {CHILD_TIMEOUT_S} s")
        t1 = _now_ns()
        if proc.returncode != 0:
            raise BenchError(f"child process failed ({proc.returncode}):\n"
                             + err.decode(errors="replace")[-2000:])
        record = json.loads(out.decode().splitlines()[-1])
        if not Path(record["statlab"]).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"measured {record['statlab']}, not ./src")
        record["wall_s"] = (t1 - t0) / 1e9
        record["setup_s"] = (record["imported_ns"] - t0) / 1e9
        for inv, code in zip(invocations, record["codes"]):
            self.check(f"statlab {inv[0]} exit code", code == 0, str(code))
        if invocations:
            record["work_per_s"] = self.workload.work / (sum(record["main_ns"]) / 1e9)
            record["peak_rss_mb"] = record["maxrss_kb"] / 1024
            for name, ok, detail in checks.check_outputs(
                    self.out_dir, [inv[0] for inv in invocations], self.digests):
                self.check(name, ok, detail)
        return record

    def check_counts(self, layer_runs: list[dict]) -> dict:
        """Counts must repeat exactly within the run and across runs of this source."""
        counts = {k: layer_runs[0][k] for k in self.counts}
        for other in layer_runs[1:]:
            diff = {k: (v, other[k]) for k, v in counts.items() if other[k] != v}
            self.check("counts repeat within the run", not diff, str(diff))
        cache = (self.work_dir / "counts"
                 / f"{self.name}-seed{self.seed}-{code_digest(self.root)}.json")
        if cache.exists():
            before = json.loads(cache.read_text())
            diff = {k: (before.get(k), v) for k, v in counts.items()
                    if before.get(k) != v}
            self.check("counts repeat across runs", not diff, str(diff))
        else:
            cache.parent.mkdir(exist_ok=True)
            cache.write_text(json.dumps(counts, sort_keys=True))
        return counts

    def run(self, seconds: int, trace: bool) -> dict:
        wl = self.workload
        start = time.monotonic()
        self.spawn(())  # warm-up: bytecode and page caches, not measured
        plain, traced, layers, probes = [], [], [], []
        spans = self.work_dir / f"spans-{self.name}.bin"
        deadline = time.monotonic() + seconds
        while (time.monotonic() < deadline
               or len(plain) < MIN_PROCESSES
               or (trace and len(traced) < MIN_PROCESSES)):
            if time.monotonic() - start > RUN_LIMIT_S:
                break
            if trace and len(traced) < len(plain):
                traced.append(self.spawn(wl.invocations, spans))
                layers.append(tracer.derive(spans))
            else:
                plain.append(self.spawn(wl.invocations))
                if not trace:
                    probes.append(self.spawn(())["setup_s"])
        samples = {m: [r[m] for r in plain] for m in self.end_to_end}
        samples["setup_s"] = probes + samples["setup_s"]
        summary = {m: {"median": statistics.median(v),
                       "quartiles": statistics.quantiles(v, n=4)[::2],
                       "n": len(v)} for m, v in samples.items()}
        result = {"workload": self.name, "seed": self.seed, "seconds": seconds,
                  "trace": int(trace), "unit_of_work": wl.unit,
                  "invocations": [list(i) for i in wl.invocations],
                  "digest_reference": self.digests is not None,
                  "samples": samples, "end_to_end": summary}
        if trace:
            counts = self.check_counts(layers)
            per_layer = {k: statistics.median([r[k] for r in layers])
                         for k in layers[0]}
            per_layer.update(counts)
            per_layer["trace.overhead_s"] = statistics.median(
                [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)])
            result["per_layer"] = per_layer
            result["per_layer_samples"] = layers
        return result


def _print_report(bench: Bench, result: dict, host: dict, units: dict) -> None:
    print(f"# perfbench {bench.name} seed={bench.seed} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    if bench.digests is None:
        print(f"# seed {bench.seed} has no reference digests: "
              "statistical and quadrature checks only")
    else:
        print(f"# seed {bench.seed}: table digests checked against reference.json")
    for name, s in result["end_to_end"].items():
        q1, q3 = s["quartiles"]
        print(f"{name:<14} {s['median']:>14.6g} {units[name]:<6} median of "
              f"{s['n']} processes (q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{'work unit':<14} {bench.workload.unit}")
    for name, value in result.get("per_layer", {}).items():
        print(f"{name:<26} {value:>16.6g} {units[name]}")
    failed = len(bench.failures)
    print(f"{'check_fail_frac':<14} {failed / bench.attempted:>14.6g} "
          f"({failed} of {bench.attempted} checks failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "statlab" / "cli.py").is_file():
            raise BenchError("no statlab source at ./src/statlab; "
                             "run from the repository root")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        host = host_facts()
        bench = Bench(root, spec, args.workload, args.seed)
        result = bench.run(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = result["per_layer"] if args.trace else {
        m: s["median"] for m, s in result["end_to_end"].items()}
    failed = len(bench.failures)
    result.update(host=host, attempted=bench.attempted, failed=failed,
                  check_fail_frac=failed / bench.attempted,
                  failures=bench.failures)
    record = (bench.work_dir
              / f"result-{bench.name}-seed{bench.seed}-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1) + "\n")
    _print_report(bench, result, host, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
