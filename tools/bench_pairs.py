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
end-to-end ones.  After each run, one fresh process in the same tree probes
six sets: for a = gen_random_spn(n, 0), n in FPM_SIZES, the capped F+- LP
that membership_report(a, ["Fpm"]) poses (fpm.n<n>.*: wall and cpu
seconds, pivots, refactorizations) and the paper's uncapped F+- LP,
check_membership_lp(u, eigen_decompose(u)[1], "Fpm") on A's unit scale u,
as the report decides A (fpm.full.n<n>.*, the same four; ROADMAP's n = 30-50
simplex targets are set on it); membership_report on
gen_random_spn(16, s) for s < REPORT_SEEDS (report.n16.*: pivots,
lp.solve calls and cpu seconds per report, which resolve a change that one
n = 16 solve cannot, the cpu microseconds per pivot, the cost of the
simplex's pivot loop, and the minor page faults per report over the timed
passes, from resource.getrusage, memory the allocator handed back to the
kernel and touched again); qpbound's timed call, qp_optimum at perfbench's
configuration, on the BRACKETS planted QPs of its catalogue that a
perfbench run times (bracket.n8.*: pivots, lp.solve calls, cpu seconds and
minor page faults per bracket), built and called by this checkout's
perfbench/workloads.py, the same file for both trees; the partition's
copositive case, test_copositive(max_clique_matrix(g, omega + 1/2)) with
its default configuration on GRAPHS graphs g = gen_gnp_graph(n, 0.5) of
ROADMAP item 14's set C, n drawn from 18-24 by default_rng(7), omega from
a Bron-Kerbosch search in the probe itself (copo.c.*: cells, pivots and
cpu seconds per graph); the clique reduction on the same graphs,
clique_number(g) with its default configuration, whose omega must be the
search's (clique.c.*: the cells of its partition, from the stats
_partition returns, pivots and cpu seconds per graph); and the acceptance
criteria ACCEPT_CRITERIA of its tests/test_acceptance.py (accept.c<nn>_s,
wall seconds).  The reports go first, since the larger LPs of the other
sets leave glibc's mmap threshold raised.  Each set runs once to warm up,
then each of its calls (one LP, one report, one bracket, one criterion) is
timed by QuietTimer from this checkout's perfbench/timing.py, the same
file for both trees, with its ATTEMPTS attempts each; the times are at the
host's quiet speed, as perfbench's own are.  A timed pass whose pivot,
solve or refactorization counts differ from the warm-up's fails the run.
Runs go one at a time.  A metric is
"resolved" when the change won at least nine tenths of the pairs
(ties count for neither side) and the medians differ by more than the
parent's quartile spread, the rule for claiming a gain.
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
REPORT_SEEDS = 40
ACCEPT_CRITERIA = (2, 6, 7, 8, 9)
BRACKETS = 45  # the qpbound entries a perfbench run times
GRAPHS = 10
# run in a tree, its src/ on the path, with argv: the perfbench/ directory
# whose timing.py and workloads.py to use, and [sizes, seeds, criteria,
# brackets, graphs] as JSON; see the module docstring
PROBE_SCRIPT = """
import functools, importlib.util, json, resource, sys
import numpy as np
from conekit import cones, copositivity, instances, linalg, lp
def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # as dataclass needs
    spec.loader.exec_module(module)
    return module
timing, tests = load("timing", sys.argv[1] + "/timing.py"), load("acceptance", "tests/test_acceptance.py")
workloads = load("workloads", sys.argv[1] + "/workloads.py")
sizes, seeds, criteria, brackets, graphs = json.loads(sys.argv[2])
tested = {}
for num in criteria:
    names = [k for k in dir(tests) if k.startswith(f"test_criterion_{num:02d}_")]
    if len(names) != 1:
        sys.exit(f"no acceptance criterion {num}")
    tested[num] = getattr(tests, names[0])
count, posed, solve = {}, [], lp.solve
def counted(prog, *args, **kwargs):
    posed[:] = [functools.partial(lp.solve, prog, *args, **kwargs)]
    sol = solve(prog, *args, **kwargs)
    count["pivots"] += sol.iterations
    count["solves"] += 1
    count["refactorizations"] += sol.refactorizations
    return sol
lp.solve = counted
def counts(fn):
    count.update(pivots=0, solves=0, refactorizations=0, cells=0)
    fn()
    return dict(count)
timer, record = timing.QuietTimer(), {}
def measure(name, calls):  # calls: a set's, each with its warm-up's counts
    # each call is measured on its own: a short call seldom spans a change
    # of the host's speed, so the references around it describe it
    wall = cpu = 0.0
    faults = [0, 0]  # minor page faults, and the calls they span
    for fn, warm in calls:
        def repeat():
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if counts(fn) != warm:
                sys.exit(f"{name}: counts {count} differ from the warm-up's {warm}")
            faults[0] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
            faults[1] += 1
        _, w, c = timer.measure(repeat)
        wall, cpu = wall + w, cpu + c
    total = {k: sum(warm[k] for _, warm in calls) for k in count}
    if name.startswith("fpm."):
        record.update({f"{name}.wall_s": wall, f"{name}.cpu_s": cpu, f"{name}.pivots": total["pivots"],
                       f"{name}.refactorizations": total["refactorizations"]})
    elif name == "report.n16":
        per_report = dict(pivots=total["pivots"], solves=total["solves"], cpu_s=cpu)
        record.update({f"{name}.{k}": v / seeds for k, v in per_report.items()})
        record[f"{name}.us_per_pivot"] = 1e6 * cpu / total["pivots"]
        record[f"{name}.minflt"] = faults[0] / faults[1]
    elif name == "bracket.n8":
        per_bracket = dict(pivots=total["pivots"], solves=total["solves"], cpu_s=cpu)
        record.update({f"{name}.{k}": v / brackets for k, v in per_bracket.items()})
        record[f"{name}.minflt"] = faults[0] / faults[1]
    elif name in ("copo.c", "clique.c"):
        per_graph = dict(cells=total["cells"], pivots=total["pivots"], cpu_s=cpu)
        record.update({f"{name}.{k}": v / graphs for k, v in per_graph.items()})
    else:
        record[f"{name}_s"] = wall
# the reports go first: freeing the larger LPs' arrays raises glibc's mmap
# threshold, after which n = 16 reports fault less than in a process that
# makes reports alone, as detect's does
if seeds:
    reports = [functools.partial(cones.membership_report, instances.gen_random_spn(16, s)[0])
               for s in range(seeds)]
    measure("report.n16", [(fn, counts(fn)) for fn in reports])
if brackets:  # perfbench's qpbound calls on its catalogue's first entries
    qpbound = workloads.WORKLOADS["qpbound"]
    qps = [qpbound.make(np.random.SeedSequence([workloads.CATALOGUE_SEED, i]), i)
           for i in range(brackets)]
    calls = [functools.partial(qpbound.solve, qp) for qp in qps]
    measure("bracket.n8", [(fn, counts(fn)) for fn in calls])
for n in sizes:
    a = instances.gen_random_spn(n, 0)[0]
    u = linalg.unit_scale(a)[0]
    for name, fn in ((f"fpm.n{n}", functools.partial(cones.membership_report, a, ["Fpm"])),
                     (f"fpm.full.n{n}", functools.partial(
                         cones.check_membership_lp, u, linalg.eigen_decompose(u)[1], "Fpm"))):
        warm = counts(fn)
        measure(name, [(posed[0], warm)])
def clique_size(adj, cand):  # Bron-Kerbosch with a pivot u: the largest clique in cand
    if not cand:
        return 0
    best, u = 0, max(cand, key=lambda v: len(adj[v] & cand))
    for v in cand - adj[u]:
        best = max(best, 1 + clique_size(adj, cand & adj[v]))
        cand = cand - {v}
    return best
def copositive(m):
    result = copositivity.test_copositive(m)
    if result.outcome != copositivity.COPOSITIVE:
        sys.exit(f"copo.c: omega + 1/2 read {result.outcome}")
    count["cells"] += result.stats["iterations"]
def clique(g, omega):
    found = instances.clique_number(g)
    if found != omega:
        sys.exit(f"clique.c: clique_number reads {found}, Bron-Kerbosch {omega}")
rng, set_c = np.random.default_rng(7), []  # (g, omega); omega comes from no conekit code
for _ in range(graphs):
    n, seed = int(rng.integers(18, 25)), int(rng.integers(0, 1_000_000))
    g = instances.gen_gnp_graph(n, 0.5, seed=seed)
    adj = [set() for _ in range(n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    set_c.append((g, clique_size(adj, set(range(n)))))
if graphs:  # omega + 1/2 is copositive, and clique_number reads omega
    calls = [functools.partial(copositive, instances.max_clique_matrix(g, omega + 0.5))
             for g, omega in set_c]
    measure("copo.c", [(fn, counts(fn)) for fn in calls])
    partition = instances._partition
    def partitioned(*args):  # counts the cells of each partition instances runs
        res, best = partition(*args)
        count["cells"] += res.stats["iterations"]
        return res, best
    instances._partition = partitioned
    calls = [functools.partial(clique, g, omega) for g, omega in set_c]
    measure("clique.c", [(fn, counts(fn)) for fn in calls])
    instances._partition = partition
for num, test in tested.items():  # its report lines go before the record
    measure(f"accept.c{num:02d}", [(test, counts(test))])
print(json.dumps(record))
"""


def probe_once(tree: Path, sizes=FPM_SIZES, seeds=REPORT_SEEDS, criteria=ACCEPT_CRITERIA,
               brackets=BRACKETS, graphs=GRAPHS) -> dict:
    """The fpm.n<n>.*, report.n16.*, bracket.n8.*, copo.c.*, clique.c.* and
    accept.c<nn>_s metrics of tree, from one fresh process on its src/, tree
    as working directory, timed by this checkout's perfbench/timing.py;
    RuntimeError when the process fails: a criterion is missing or fails, a
    clique number is wrong, or a timed pass's counts move."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    sets = json.dumps([list(sizes), seeds, list(criteria), brackets, graphs])
    command = [sys.executable, "-c", PROBE_SCRIPT, str(ROOT / "perfbench"), sets]
    r = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if r.returncode:
        raise RuntimeError(f"probe in {tree} failed:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench/run.py run in tree, then its probe; the run's final JSON
    object with the probe's metrics added."""
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
                    **probe_once(tree)},
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
