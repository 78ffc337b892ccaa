"""Record the seeded-table digests that run.py checks, in reference.json.

Usage, from the repository root:

    python3 perfbench/make_reference.py

Digests are kept for statlab's default seed and for held-out seeds 0-10.
Rerun this only when a table is meant to change, and say why where the change
is recorded: a digest that moves otherwise means the program's output moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run

SEEDS = (run.DEFAULT_SEED, *range(11))


def main() -> int:
    root = Path.cwd().resolve()
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload in run.WORKLOADS.items():
        tables = [checks.DIGESTED[inv[0]] for inv in workload.invocations
                  if inv[0] in checks.DIGESTED]
        if not tables:
            continue
        for seed in SEEDS:
            bench = run.Bench(root, name, seed)
            bench.digests = None
            bench.spawn(workload.invocations)
            if bench.failures:
                print(f"{name} seed {seed}: checks failed", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = {
                t: checks.digest(bench.out_dir / t) for t in tables}
            print(f"{name} seed {seed}: {bench.attempted} checks passed")
    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True)
                    + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
