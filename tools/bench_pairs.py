"""Alternating benchmark pairs: a git revision against this checkout.

Extracts REV with git archive, then runs perfbench/run.py once in REV's tree
and once in this checkout, K times, alternating which side goes first (the
first pair runs REV first).  Pair i uses seed SEED + i on both sides.  Every
metric of the runs' final JSON line is kept per pair, with its median and
quartiles on each side and the number of pairs the checkout won, and the
whole record goes to --out (or stdout):

    python tools/bench_pairs.py --parent HEAD~1 --workload detect --pairs 5 \\
        --out pairs.json

Run it from anywhere; each run gets its own tree as working directory, as
the benchmark expects, and runs for perfbench/run.py's own length.  --trace
1 runs the traced mode and records the per-layer metrics instead of the
end-to-end ones.  After each run, the same tree also solves the F+-
membership LP of gen_random_spn(n, 0) for n in FPM_SIZES in a fresh process,
and the pair keeps its wall and cpu seconds, pivots and refactorizations as
metrics fpm.n<n>.*; in another, it runs membership_report on
gen_random_spn(16, s) for s < REPORT_SEEDS and keeps the pivots, lp.solve
calls and cpu seconds per report as report.n16.*, which resolve a change
that one n = 16 solve cannot, and the report's cpu microseconds per pivot
as report.n16.us_per_pivot, the cost of the simplex's pivot loop; then, in
another fresh process, it runs the acceptance criteria ACCEPT_CRITERIA of
its tests/test_acceptance.py and keeps their wall seconds as accept.c<nn>_s.
Runs go one at a time.  A metric is "resolved" when the change won at least
nine tenths of the pairs (ties count for neither side) and the medians
differ by more than the parent's quartile spread, the rule for claiming a
gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from gitrev import ROOT, extracted

SIDES = ("parent", "change")
FPM_SIZES = (10, 16, 20, 30)
# run in a tree's src/: time the one lp.solve that the F+- membership test
# of gen_random_spn(n, 0) makes, for each n in argv
FPM_SCRIPT = """
import json, sys, time
from conekit import cones, instances, lp
out, solve = {}, lp.solve
def timed(prog, *args, **kwargs):
    w, c = time.perf_counter(), time.process_time()
    sol = solve(prog, *args, **kwargs)
    w, c = time.perf_counter() - w, time.process_time() - c
    out.update(wall_s=w, cpu_s=c, pivots=sol.iterations,
               refactorizations=sol.refactorizations)
    return sol
lp.solve = timed
record = {}
for n in map(int, sys.argv[1:]):
    cones.membership_report(instances.gen_random_spn(n, 0)[0], ["Fpm"])
    record.update({f"fpm.n{n}.{k}": v for k, v in out.items()})
print(json.dumps(record))
"""
REPORT_SEEDS = 40
# run in a tree's src/: membership_report on gen_random_spn(16, s) for s
# below argv[1], with lp.solve wrapped as in FPM_SCRIPT; per report means,
# and the cpu microseconds per pivot
REPORT_SCRIPT = """
import json, sys, time
from conekit import cones, instances, lp
count, solve = {"pivots": 0, "solves": 0}, lp.solve
def counted(prog, *args, **kwargs):
    sol = solve(prog, *args, **kwargs)
    count["pivots"] += sol.iterations
    count["solves"] += 1
    return sol
lp.solve = counted
mats = [instances.gen_random_spn(16, s)[0] for s in range(int(sys.argv[1]))]
c = time.process_time()
for a in mats:
    cones.membership_report(a)
count["cpu_s"] = time.process_time() - c
record = {f"report.n16.{k}": v / len(mats) for k, v in count.items()}
record["report.n16.us_per_pivot"] = 1e6 * count["cpu_s"] / count["pivots"]
print(json.dumps(record))
"""
ACCEPT_CRITERIA = (2, 6, 7, 8, 9)
# run in a tree: time each named criterion of its acceptance tests, which
# raise when the criterion fails; the tests' own report lines are dropped
ACCEPT_SCRIPT = """
import contextlib, importlib.util, io, json, sys, time
spec = importlib.util.spec_from_file_location("acceptance", "tests/test_acceptance.py")
tests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tests)
record = {}
for num in map(int, sys.argv[1:]):
    name, = (k for k in dir(tests) if k.startswith(f"test_criterion_{num:02d}_"))
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        getattr(tests, name)()
    record[f"accept.c{num:02d}_s"] = time.perf_counter() - started
print(json.dumps(record))
"""


def _in_tree(tree: Path, what: str, script: str, args) -> dict:
    """The JSON record that script prints, run with args in a fresh process
    on tree's src/, tree as working directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-c", script, *map(str, args)]
    r = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if r.returncode:
        raise RuntimeError(f"{what} in {tree} failed:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def fpm_once(tree: Path, sizes=FPM_SIZES) -> dict:
    """The fpm.n<n>.* metrics of tree's F+- membership LPs, in a fresh process."""
    return _in_tree(tree, "F+- timing", FPM_SCRIPT, sizes)


def report_once(tree: Path, seeds=REPORT_SEEDS) -> dict:
    """The report.n16.* metrics of tree's membership reports, per report,
    in a fresh process."""
    return _in_tree(tree, "report timing", REPORT_SCRIPT, [seeds])


def accept_once(tree: Path, criteria=ACCEPT_CRITERIA) -> dict:
    """The accept.c<nn>_s wall seconds of tree's acceptance criteria, in a
    fresh process; a failing criterion raises RuntimeError."""
    return _in_tree(tree, "acceptance timing", ACCEPT_SCRIPT, criteria)


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench/run.py run in tree, then its F+-, report and acceptance
    timings; the run's final JSON object with the fpm.*, report.* and
    accept.* metrics added."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    r = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if r.returncode:
        raise RuntimeError(f"{' '.join(command)} in {tree} failed:\n{r.stderr[-2000:]}")
    final = json.loads(r.stdout.strip().splitlines()[-1])
    return {
        "attempted": final["attempted"],
        "failed": final["failed"],
        "correct": final["correct"],
        "metrics": {**{k: v["value"] for k, v in final["metrics"].items()},
                    **fpm_once(tree), **report_once(tree), **accept_once(tree)},
    }


def summarize(pairs: list, better: dict) -> dict:
    """Median and quartiles of every metric on each side, the pairs the
    change won and whether that resolves a difference; better maps a metric
    to "lower" or "higher" (lower when missing)."""
    names = [k for k in pairs[0]["parent"]["metrics"] if k in pairs[0]["change"]["metrics"]]
    out = {}
    for name in names:
        values = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        row = {}
        for side in SIDES:
            v = values[side]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            row[side] = {"median": statistics.median(v), "q1": q1, "q3": q3, "runs": v}
        row["change_wins"] = f"{wins}/{len(pairs)}"
        spread = row["parent"]["q3"] - row["parent"]["q1"]
        gap = abs(row["change"]["median"] - row["parent"]["median"])
        row["resolved"] = 10 * wins >= 9 * len(pairs) and gap > spread
        row["median_change_over_parent"] = (
            row["change"]["median"] / row["parent"]["median"]
            if row["parent"]["median"] else None
        )
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the JSON record here, not to stdout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    pairs = []
    try:
        with extracted(args.parent) as tmp:
            trees = {"parent": tmp, "change": ROOT}
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = run_once(trees[side], args.workload, seed, args.trace)
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: failed "
                          f"{pair[side]['failed']}/{pair[side]['attempted']}",
                          file=sys.stderr)
                pairs.append(pair)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    record = {
        "parent": args.parent,
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--trace {args.trace}",
        "pairs": pairs,
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "metrics": summarize(pairs, better),
    }
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
