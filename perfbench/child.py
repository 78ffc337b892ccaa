"""One measured statlab process, spawned by run.py.

Usage: python3 perfbench/child.py '<spec json>'

The spec holds the `statlab.cli.main` argv lists to run in order and, for a
traced run, the file to write spans to.  The last stdout line is a JSON record:
the monotonic time at which `import statlab.cli` returned (run.py subtracts
its spawn time to get set-up time), nanoseconds spent in each `main` call,
their exit codes and the process's peak RSS.

Peak RSS is VmHWM, the high-water mark of this process's own address space.
`ru_maxrss` would not do: Linux carries it across exec, so it reports the
spawning benchmark process's footprint whenever that is the larger.
"""

import time

import statlab.cli  # the import is the set-up being timed

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes, main_ns = [], []
    for argv in spec["invocations"]:
        t0 = time.perf_counter_ns()
        codes.append(statlab.cli.main(argv))
        main_ns.append(time.perf_counter_ns() - t0)
    record = {
        "imported_ns": IMPORTED_NS,
        "statlab": statlab.cli.__file__,
        "main_ns": main_ns,
        "codes": codes,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        tracer.dump(spec["spans"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
