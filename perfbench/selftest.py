#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload:
  1. two traced runs on the same seed report identical lp.pivots,
     lp.solve.calls and copositivity.cells (the counts later changes are
     compared by, so they must repeat exactly);
  2. a second seed runs clean end to end (no failed instance), so a claim
     can be confirmed on a seed not used while it was written.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("detect", "qpbound", "clique")
REPEATED_COUNTS = ("lp.pivots", "lp.solve.calls", "copositivity.cells")
TRACE_SEED, SECOND_SEED = 1, 2
SECONDS = 6


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        first, second = (bench(workload, TRACE_SEED, 1) for _ in range(2))
        for name in REPEATED_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} differs between traced runs ({a} vs {b})")
        for label, result in (("traced", first), ("end-to-end seed 2", bench(workload, SECOND_SEED, 0))):
            if result["failed"] or not result["correct"]:
                failures.append(f"{workload} {label}: {result['failed']} of {result['attempted']} failed")
        counts = {n: first["metrics"][n]["value"] for n in REPEATED_COUNTS}
        print(f"{workload}: {counts}")
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
