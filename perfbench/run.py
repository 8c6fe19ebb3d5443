#!/usr/bin/env python3
"""Benchmark for conekit, run from the root of a source checkout:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``detect`` (one membership report over all
seven cones per PSD+N matrix), ``qpbound`` (bracket a planted simplex-QP
optimum) and ``clique`` (clique number of a small G(n, p) graph).
``--workload all`` runs each in turn.

``--trace 0`` measures the end-to-end metrics with tracing off: a single
client calls the library back to back (a closed loop) over a fixed
catalogue of instances, in an order drawn from ``--seed``.  ``--seconds``
sets how many catalogue entries run: about that many seconds of work at the
commit that defined the benchmark, and the same entries on every commit.
``--trace 1`` takes half as many entries, solves each once plain and once
traced, and reports the per-layer metrics.  Both modes first solve a fresh
sample generated from ``--seed``.

Timed calls wait for, and are scaled to, the host's quiet speed; see
timing.py.  Every answer is checked by an untimed oracle.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds the run's metadata.  Both are also
written, with the raw times (and, when traced, the spans), under
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("detect", "qpbound", "clique")
FRESH = 4  # instances from the seed's own stream, solved and checked untimed
MIN_TIMED = 20
SETUP_REPEATS = 7

E2E_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "cpu_per_instance_s": "s",
    "peak_rss_mb": "MB",
}


def use_source_tree() -> None:
    """Import conekit from this checkout's src/, never from elsewhere."""
    if not (SRC / "conekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no conekit sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import conekit

    if Path(conekit.__file__).resolve().parent != SRC / "conekit":
        raise SystemExit(f"perfbench: imported conekit from {conekit.__file__}, not {SRC}")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name == "lp.us_per_pivot":
        return "us"
    return "count"


# -- metadata -------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "conekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measurement ----------------------------------------------------------


def timed_count(wl, seconds: float) -> int:
    """Catalogue entries a run times: about --seconds of work at the
    commit that defined the benchmark, the same count on every commit."""
    return max(MIN_TIMED, round(wl.rate * seconds))


def setup_seconds(timer, workload: str, seed: int, seconds: float) -> list:
    """Time of a fresh interpreter that imports conekit and generates the
    run's instances, repeated; returns every sample."""
    command = [sys.executable, __file__, "--setup-probe", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    probe = functools.partial(subprocess.run, command, cwd=ROOT, check=True, timeout=120)
    return [timer.measure(probe)[1] for _ in range(SETUP_REPEATS)]


def make_run_instances(wl, seed: int, count: int):
    """(fresh sample from the seed's stream, catalogue entries in seed order)."""
    import numpy as np
    import workloads

    fresh = workloads.make_instances(wl, seed, 0, FRESH)
    catalogue = workloads.make_instances(wl, workloads.CATALOGUE_SEED, 0, count)
    order = np.random.default_rng(seed).permutation(count)
    return fresh, [(int(i), catalogue[i]) for i in order]


def solve_checked(wl, instance):
    """Solve one instance; returns (answer, failure reason or "")."""
    try:
        answer = wl.solve(instance)
    except Exception as exc:  # a raising instance counts as failed, the run goes on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return None, f"raised {type(exc).__name__} at {where.filename}:{where.lineno}: {exc}"
    return answer, ""


def solve_fresh(timer, wl, fresh) -> list:
    """Solve and check the seed's fresh sample, untimed.  It also warms up
    first-call costs that users pay once per process, and shows the timer
    the host's speed."""
    failures = []
    for i, instance in enumerate(fresh):
        answer, reason = timer.measure(solve_checked, wl, instance, attempts=1)[0]
        reason = reason or wl.check(instance, answer)
        if reason:
            failures.append(f"fresh instance {i}: {reason}")
    return failures


def central_median(values: list) -> float:
    """The median, estimated as the mean of the nine central values: the
    catalogues have gaps near their medians, across which the plain median
    of a few dozen noisy times jumps."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return statistics.fmean(ordered[mid - 4 : mid + 5])


def end_to_end(wl, seed: int, seconds: float):
    import timing

    fresh, timed = make_run_instances(wl, seed, timed_count(wl, seconds))
    timer = timing.QuietTimer()
    failures = solve_fresh(timer, wl, fresh)
    samples = [timer.measure(solve_checked, wl, instance) for _, instance in timed]
    setup = setup_seconds(timer, wl.name, seed, seconds)
    for (j, instance), ((answer, reason), *_) in zip(timed, samples):  # after the clock stops
        reason = reason or wl.check(instance, answer)
        if reason:
            failures.append(f"catalogue instance {j}: {reason}")
    walls = [wall for _, wall, _ in samples]
    n = len(walls)
    # the highest percentile with ten instances beyond it
    tail_rank = n - 10
    metrics = {
        "setup_s": statistics.median(setup),
        "instances_per_s": n / sum(walls),
        "instance_p50_s": central_median(walls),
        "instance_tail_s": sorted(walls)[tail_rank - 1],
        "cpu_per_instance_s": central_median([cpu for *_, cpu in samples]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "timed_instances": n,
        "fresh_instances": len(fresh),
        "setup_samples": setup,
        "tail_pct": 100.0 * tail_rank / n,
        "beyond_tail": n - tail_rank,
        "host": timer.summary(),
    }
    raw = {"instance_s": {j: w for (j, _), w in zip(timed, walls)}, "kept": timer.kept}
    return n + len(fresh), failures, metrics, record, raw


def traced(wl, seed: int, seconds: float):
    import layertrace
    import timing

    # each entry runs twice, plain and traced, so half the count of a timed run
    fresh, timed = make_run_instances(wl, seed, max(2, round(wl.rate * seconds / 2)))
    timer = timing.QuietTimer()
    failures = solve_fresh(timer, wl, fresh)
    tracer = layertrace.Tracer()
    plain_s = traced_s = 0.0
    for k, (j, instance) in enumerate(timed):
        # alternate which pass goes first so slow phases of the host land
        # on both sides of the overhead ratio
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            # one attempt each: a repeated traced call would count its spans twice
            if with_trace:
                with tracer:
                    (answer, reason), wall, _ = timer.measure(
                        tracer.run_instance, j, solve_checked, wl, instance, attempts=1
                    )
                traced_s += wall
            else:
                (answer, reason), wall, _ = timer.measure(solve_checked, wl, instance, attempts=1)
                plain_s += wall
            reason = reason or wl.check(instance, answer)
            if reason:
                kind = "traced" if with_trace else "plain"
                failures.append(f"catalogue instance {j} ({kind}): {reason}")
    metrics = layertrace.layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-{seed}.spans.jsonl")
    record = {
        "traced_instances": len(timed),
        "fresh_instances": len(fresh),
        "spans": len(tracer.spans),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "host": timer.summary(),
    }
    return 2 * len(timed) + len(fresh), failures, metrics, record, {"kept": timer.kept}


def run_workload(name: str, args, meta: dict) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name]
    if args.trace:
        attempted, failures, metrics, record, raw = traced(wl, args.seed, args.seconds)
        units = {k: layer_unit(k) for k in metrics}
    else:
        attempted, failures, metrics, record, raw = end_to_end(wl, args.seed, args.seconds)
        units = E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    meta = {**meta, "workload": name, "samples": record, "failures": failures[:20]}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "result": result, "raw": raw}, fh, indent=1)
    for k, v in metrics.items():
        print(f"{name:8s} {k:32s} {v:14.6g} {units[k]}")
    print(f"{name:8s} {'fail_frac':32s} {len(failures) / attempted:14.6g} ratio")
    for reason in failures[:5]:
        print(f"{name:8s} FAILED {reason}")
    return {"meta": meta, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    use_source_tree()
    import workloads

    if args.setup_probe:
        wl = workloads.WORKLOADS[args.workload]
        make_run_instances(wl, args.seed, timed_count(wl, args.seconds))
        return 0

    meta = metadata(args)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = {name: run_workload(name, args, meta) for name in names}
    print(json.dumps({"meta": meta | {"samples": {n: r["meta"]["samples"] for n, r in runs.items()}}}))
    if len(runs) == 1:
        final = next(iter(runs.values()))["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in runs.items() for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
