"""Output fingerprint of conekit: one sha256 digest and a count per section.

Runs a fixed suite through the public entry points of whichever conekit is on
PYTHONPATH and hashes every output bit that a refactor must keep:

- partition: test_copositive on 26 matrices x N/H/G/F+/F+- (outcome,
  certificate, every stats field but wall_time), with a count of the
  not_copositive certificates whose form is negative in fractions;
- report:    membership_report on 46 matrices x 7 cones (status, alpha*,
  S, N, note): 40 gen_random_spn(12) draws, a non-copositive 2 x 2 matrix
  at 1e-10 and 1e10, and two draws at 2^-41 and 2^40, with a count of the
  G/F+/F+- member witnesses that pass a check which does not trust the LP
  (S and N exactly symmetric, S PSD, N at least alpha*);
- bracket:   qp_optimum on 12 planted QPs (n=8): 10 at eta = 0.1, and two
  offset by 1e10 at eta = 0.001, where each cell's V^T Q V carries a
  rounding error of about 1e-6; with a count of the brackets that hold the
  planted optimum (t, or t + 1e10), and each QP's replicator start and
  that start's value _form_above(Q, start), so a start that moves shows
  even where the bracket stays put;
- clique:    clique_number on 6 random graphs (the clique number, and the
  replicator start, its _form_above value and the stats but wall_time of
  its partition run);
- lp:        77 answers of lp.solve on LPs  max c.y, A y <= b, y >= 0: 64 small ones
  full of singleton rows, tied rows and zero-rhs rows, all feasible at
  y = 0, where lp.solve starts (status, y, objective, row duals, pivots),
  and the 13 answers of the 8 lp.solve calls that membership_report makes
  on gen_random_spn(16, s) for s = 0..3, the L LP and one solve of 137
  rows whose stages are the G, F+ and F+- LPs, where the simplex holds up
  to 20 deferred updates (the same, and refactorizations).  Each stage it
  solved is hashed with y on the columns still held dropped; a solve that
  ends at the cap lists no stage after it;
- cli:       cli.main on fixed files for membership, copositive, qpbound,
  clique and a small bench suite (exit code, and every record field but
  wall_time, or the printed line), on two suites that each miss a
  required field, one whose row sets alg, a field that no bench reader
  reads, and on two gen calls to refuse, a NaN t and a negative seed (exit
  code and stderr), so a change to the error texts of the bench reader or
  of gen shows.  No bench row reads a file instance,
  whose path would differ between runs.

CHANGES.md records each change that moved a digest, and why.

Run it from the repository root (the run time goes to stderr):

    PYTHONPATH=src python tools/fingerprint.py

With --parent REV it extracts REV's src/ with git archive, runs the sections
against that tree and against this checkout's src/ in two subprocesses,
prints both digests per section, and exits 1 if any section differs.  A
section that differs also prints both trees' details, so a witness that
fails its check shows even where rounding alone moved the digest, and then
the records that differ (one per hashed value: a matrix and cone, an LP, a
CLI run, ...), paired by label, the largest float deviation first, each
relative to the largest float of its record, and then the labels that
only one tree has:

    PYTHONPATH=src python tools/fingerprint.py --parent HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from conekit import cli, cones, copositivity, instances, lp
from conekit.copositivity import FAMILIES, CopoConfig, _form_above
from conekit.copositivity import test_copositive as run_copositive
from conekit.linalg import format_matrix
from gitrev import ROOT, extracted

M2 = np.array([[1.0, 5.0, -2.0], [5.0, 1.0, -2.0], [-2.0, -2.0, 4.0]])
TOOLS = Path(__file__).resolve().parent
SHOWN = 10  # the differing records that compare prints per section


def _feed(h, value) -> None:
    """Hash a value with its type, shape and exact bits."""
    if isinstance(value, dict):
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(np.float64(value).tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b";")


class _Digest:
    """A section's sha256 over the values fed to it, which also keeps each
    value as a labelled record, so compare can name the records that moved."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.records = []

    def feed(self, label: str, value) -> None:
        _feed(self.sha, value)
        self.records.append((label, value))

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


def _partition_matrices() -> list:
    mats = []
    for k in (3, 4, 5):
        g = instances.complete_graph(k)
        mats += [instances.max_clique_matrix(g, k + 0.5),
                 instances.max_clique_matrix(g, k - 0.5)]
    # 3(E - A_K3) - E: the N family closes in on a zero of the form
    mats.append(instances.max_clique_matrix(instances.complete_graph(3), 3.0))
    path = instances.Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    mats += [instances.max_clique_matrix(path, 2.5),
             instances.max_clique_matrix(path, 1.5)]
    for seed in range(4):
        qp = instances.gen_planted_qp(5, 2, -1.0, seed=seed)
        mats += [instances.std_qp_matrix(qp.Q, qp.t - 0.3),
                 instances.std_qp_matrix(qp.Q, qp.t + 0.3)]
    rng = np.random.default_rng(5)
    for n in (3, 4, 4, 5):
        a = rng.normal(size=(n, n))
        mats.append((a + a.T) / 2 + n * np.eye(n))
    mats += [instances.gen_random_spn(4, 7)[0], instances.gen_random_spn(5, 8)[0]]
    # the Horn matrix: copositive, outside PSD + N, zeros inside the simplex
    mats.append(np.array([
        [1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
        [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1],
    ], dtype=float))
    mats.append(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    # u u^T with a unit third diagonal entry, u = (r, -7r, 0): PSD, with a
    # float form at a cell vertex that reads below the exact one
    r = 1.2391833100190313
    mats.append(np.outer([r, -7 * r, 0.0], [r, -7 * r, 0.0]))
    mats[-1][2, 2] = 1.0
    return mats


def _exact_form(a, x) -> Fraction:
    """x^T A x on the floats' exact values, with no conekit code."""
    xs, rows = [Fraction(v) for v in x.tolist()], a.tolist()
    return sum(Fraction(rows[i][j]) * xs[i] * xs[j]
               for i in range(len(xs)) for j in range(len(xs)))


def partition_section():
    h = _Digest()
    tally: Counter = Counter()
    runs = exact = 0
    for i, a in enumerate(_partition_matrices()):
        for family in FAMILIES:
            res = run_copositive(a, CopoConfig(cone_family=family, max_iterations=1500))
            stats = {k: v for k, v in res.stats.items() if k != "wall_time"}
            h.feed(f"matrix {i} {family}", [res.outcome, res.certificate, stats])
            tally[res.stats["reason"] or res.outcome] += 1
            runs += 1
            if res.outcome == "not_copositive":
                exact += _exact_form(a, res.certificate) < 0
    detail = " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
    refuted = tally["not_copositive"]
    return runs, h, f"{detail} certificates exact: {exact}/{refuted}"


def _witness_ok(a, v) -> bool:
    """An LP-family member's witness checked without trusting the LP: S and
    N exactly symmetric, S PSD and N above the floor alpha*, both up to
    rounding relative to max |A|."""
    scale = float(np.max(np.abs(a)))
    return bool(
        np.array_equal(v.s_part, v.s_part.T)
        and np.array_equal(v.n_part, v.n_part.T)
        and np.min(np.linalg.eigvalsh(v.s_part)) >= -1e-12 * scale
        and np.min(v.n_part) >= v.alpha_star - 1e-9 * scale
    )


def _report_matrices() -> list:
    """40 gen_random_spn(12) draws, then T = [[1, -2], [-2, 1]], which is not
    copositive, at 1e-10 and 1e10, and the first two draws at 2^-41 and 2^40."""
    draws = [instances.gen_random_spn(12, seed)[0] for seed in range(40)]
    t = np.array([[1.0, -2.0], [-2.0, 1.0]])
    return [*draws, 1e-10 * t, 1e10 * t,
            *(np.ldexp(a, k) for a in draws[:2] for k in (-41, 40))]


def report_section():
    h = _Digest()
    count = 0
    witnesses = []
    for i, a in enumerate(_report_matrices()):
        for v in cones.membership_report(a):
            h.feed(f"matrix {i} {v.cone}",
                   [v.status, v.cone, v.alpha_star, v.s_part, v.n_part, v.note])
            count += 1
            if v.is_member and v.cone in cones.LP_FAMILIES:
                witnesses.append(_witness_ok(a, v))
    return count, h, f"witness ok: {sum(witnesses)}/{len(witnesses)}"


@contextlib.contextmanager
def _partition_runs():
    """Record each partition run that instances makes, as a dict: its start
    point, the start's value _form_above(form, start), and its stats but
    wall_time."""
    partition, runs = instances._partition, []

    def recorded(a, cfg, level):
        res, best = partition(a, cfg, level)
        start = copositivity._replicator_start(a)
        stats = {k: v for k, v in res.stats.items() if k != "wall_time"}
        runs.append({"start": start, "start_value": _form_above(a, start),
                     "stats": stats})
        return res, best

    instances._partition = recorded
    try:
        yield runs
    finally:
        instances._partition = partition


def bracket_section():
    h = _Digest()
    cfg = CopoConfig(max_iterations=20000)
    hits = 0  # brackets holding the planted optimum, with no tolerance
    with _partition_runs() as runs:
        for seed in range(10):
            qp = instances.gen_planted_qp(8, 4, -10.0, seed=seed)
            b = instances.qp_optimum(qp.Q, cfg, eta=0.1)
            h.feed(f"qp {seed}", [b.lo, b.hi, b.converged])
            hits += b.lo <= qp.t <= b.hi
        for seed in (1, 3):  # the optimum t + 1e10, to within 1e-3
            qp = instances.gen_planted_qp(8, 4, -10.0, seed=seed)
            b = instances.qp_optimum(qp.Q + 1e10, CopoConfig(max_iterations=3000),
                                     eta=0.001)
            h.feed(f"qp {seed} + 1e10", [b.lo, b.hi, b.converged])
            hits += b.lo <= qp.t + 1e10 <= b.hi
    h.feed("starts", [[r["start"], r["start_value"]] for r in runs])
    return 12, h, f"t in [lo, hi]: {hits}/12"


def clique_section():
    h = _Digest()
    cfg = CopoConfig(max_iterations=20000)
    with _partition_runs() as runs:
        for seed in range(6):
            g = instances.gen_gnp_graph(6 + seed % 3, 0.5, seed=seed)
            h.feed(f"graph {seed}", instances.clique_number(g, cfg))
    h.feed("partition runs", runs)
    return 6, h, f"cells={sum(r['stats']['iterations'] for r in runs)}"


def _singleton_lp(rng):
    """A random LP  max c.y, A y <= b, y >= 0  whose rows are mostly
    singletons: repeated bounds (exact ties, also through scaled copies),
    negative coefficients, zero rhs of either sign, and plain dense rows.
    Every row holds at y = 0, where lp.solve starts, many of them tightly,
    so these LPs exercise degenerate and tied rows.  Returns (c, A, b)."""
    n = int(rng.integers(2, 6))
    rows, rhs = [], []
    for _ in range(int(rng.integers(n + 2, 3 * n + 4))):
        u = rng.uniform()
        if u < 0.7:
            a = np.zeros(n)
            a[int(rng.integers(0, n))] = float(rng.choice([1.0, -1.0, 2.0, -0.5]))
            if u < 0.15:  # a zero bound that y = 0 meets, either sign of zero
                b = -0.0 if u < 0.05 else 0.0
            else:
                b = float(rng.choice([0.5, 1.0]))
            rows.append(a)
            rhs.append(b)
            if rng.uniform() < 0.4:  # a tie: the same bound again
                scale = float(rng.choice([1.0, 2.0]))
                rows.append(scale * a)
                rhs.append(scale * b)
        else:
            rows.append(rng.normal(size=n))
            rhs.append(1.0)
    return rng.normal(size=n), np.array(rows), np.array(rhs)


def _report_lps(seeds) -> list:
    """The (LP, keyword arguments) pairs that membership_report passes to
    lp.solve on gen_random_spn(16, s) for each s in seeds."""
    calls, solve = [], lp.solve

    def recorded(prog, **kwargs):
        calls.append((prog, kwargs))
        return solve(prog, **kwargs)

    lp.solve = recorded
    try:
        for seed in seeds:
            cones.membership_report(instances.gen_random_spn(16, seed)[0])
    finally:
        lp.solve = solve
    return calls


def _lp_fields(sol, held=()) -> list:
    """The hashed fields of a detect-size solution, y without the columns
    of the sets still held, each set read as lp.solve reads it."""
    x = sol.x
    if x is not None:
        x = np.delete(x, np.concatenate([np.arange(len(x))[cols] for cols in [[], *held]]))
    return [sol.status, x, sol.objective_value, sol.dual, sol.iterations,
            sol.refactorizations]


def lp_section():
    h = _Digest()
    rng = np.random.default_rng(31)
    progs = [_singleton_lp(rng) for _ in range(63)]
    # tied rows: x <= 1 twice around x <= 3, y <= 1 twice around -y <= 2
    progs.append((
        [1.0, 1.0],
        [[1, 0], [1, 0], [1, 0], [0, -1], [0, 1], [0, 1], [1, 1]],
        [1, 3, 1, 2, 1, 1, 5],
    ))
    statuses: Counter = Counter()
    for i, (c, a, b) in enumerate(progs):
        sol = lp.solve(lp.LinearProgram(c, a, b))
        h.feed(f"lp {i}",
               [sol.status, sol.x, sol.objective_value, sol.dual, sol.iterations])
        statuses[sol.status] += 1
    detect = 0
    for i, (prog, kwargs) in enumerate(_report_lps(range(4))):
        sol = lp.solve(prog, **kwargs)
        # a held solve answers one LP per stage, without the columns still held
        held = list(kwargs.get("held", ()))
        for k, stage in enumerate(sol.stages):
            h.feed(f"report lp {i} stage {k}", _lp_fields(stage, held[k:]))
            statuses[stage.status] += 1
        detect += len(sol.stages)
    detail = " ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    return len(progs) + detect, h, detail


def _cli_runs(tmp: Path) -> list:
    """Subcommand argument lists over input files written into tmp."""

    def matrix(name, a):
        path = tmp / name
        path.write_text(format_matrix(a))
        return str(path)

    def k_gamma(n, gamma):
        return instances.max_clique_matrix(instances.complete_graph(n), gamma)

    spn = matrix("spn.txt", instances.gen_random_spn(6, 3)[0])
    m2 = matrix("m2.txt", M2)
    k55, k45 = matrix("k55.txt", k_gamma(5, 5.5)), matrix("k45.txt", k_gamma(5, 4.5))
    k50 = matrix("k50.txt", k_gamma(5, 5.0))
    qp = matrix("qp.txt", instances.gen_planted_qp(6, 3, -10.0, seed=2).Q)
    graph = tmp / "g.col"
    graph.write_text(instances.format_dimacs(instances.gen_gnp_graph(7, 0.5, seed=4)))
    spn5 = {"kind": "spn", "n": 5}
    suite = tmp / "suite.json"
    suite.write_text(json.dumps({"seed": 3, "rows": [
        {"instance": spn5, "task": "membership", "cone": c, "repeat": 2}
        for c in ("H", "F+-", "L")
    ] + [
        {"instance": {"kind": "kgamma", "n": 4, "gamma": 4.5},
         "task": "copositive", "cone": "F+-"},
        {"instance": {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0,
                      "gamma": -1.2}, "task": "copositive", "cone": "F+"},
        {"instance": spn5, "task": "copositive", "cone": "N", "max_iter": 3},
    ]}))
    missing = []
    for k, row in enumerate(({"instance": {"kind": "file"}}, {"instance": {"n": 4}},
                             {"instance": spn5, "task": "copositive", "alg": 2})):
        path = tmp / f"missing{k}.json"
        path.write_text(json.dumps({"rows": [row]}))
        missing.append(["bench", str(path), "--format", "json"])
    js = ["--format", "json"]
    return [
        ["membership", spn, *js],
        ["membership", m2, "--cone", "H,G,F+-", *js],
        ["copositive", k55, *js],
        ["copositive", k45, *js],
        ["copositive", k50, "--cone", "N", "--max-iter", "20", *js],
        ["copositive", spn, "--cone", "G", *js],
        ["qpbound", qp, "--eta", "0.1"],
        ["qpbound", qp, "--cone", "F+", "--max-iter", "3"],
        ["clique", str(graph)],
        ["clique", str(graph), "--cone", "G", "--max-iter", "5"],
        ["bench", str(suite), *js],
        *missing,
        ["gen", "plantedqp", "--n", "3", "--t", "nan"],
        ["gen", "spn", "--n", "3", "--seed", "-1"],
    ]


def cli_section():
    h = _Digest()
    exits: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        runs = _cli_runs(Path(tmp))
        for i, argv in enumerate(runs):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = out.getvalue()
            if text.startswith("{"):  # JSON records
                text = [
                    {k: v for k, v in json.loads(line).items() if k != "wall_time"}
                    for line in text.splitlines()
                ]
            h.feed(f"run {i} {argv[0]}", [argv[0], code, text, err.getvalue()])
            exits[f"exit{code}"] += 1
    detail = " ".join(f"{k}={v}" for k, v in sorted(exits.items()))
    return len(runs), h, detail


SECTIONS = {
    "partition": partition_section,
    "report": report_section,
    "bracket": bracket_section,
    "clique": clique_section,
    "lp": lp_section,
    "cli": cli_section,
}


def _leaves(value):
    """The leaves of a fed value in _feed's order, an array's entries one by
    one, with a marker for each container's shape."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield key
            yield from _leaves(value[key])
    elif isinstance(value, (list, tuple)):
        yield ("list", len(value))
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, np.ndarray):
        yield (value.dtype.str, value.shape)
        yield from value.ravel().tolist()
    else:
        yield value


def _deviation(parent, tree) -> float | None:
    """The largest |p - t| over the float leaves of two versions of a record,
    relative to the largest finite |float| among them (1 if all are 0): inf
    where a NaN or an infinity meets another value, and None where a leaf
    that is not a float, or a container's shape, differs."""
    a, b = list(_leaves(parent)), list(_leaves(tree))
    real = [isinstance(p, float) and isinstance(t, float) for p, t in zip(a, b)]
    if len(a) != len(b) or any(p != t for p, t, r in zip(a, b, real) if not r):
        return None
    pairs = [(p, t) for p, t, r in zip(a, b, real) if r]
    scale = max((abs(v) for pt in pairs for v in pt if math.isfinite(v)), default=0.0)
    gaps = [abs(p - t) / (scale or 1.0) for p, t in pairs
            if p != t and not (math.isnan(p) and math.isnan(t))]
    return max((math.inf if math.isnan(g) else g for g in gaps), default=0.0)


def _sha(value) -> bytes:
    h = hashlib.sha256()
    _feed(h, value)
    return h.digest()


def differences(parent: list, tree: list) -> list:
    """Lines naming the records of one section whose hashed values differ
    between two runs, paired by label: those whose change is not a float's
    first, then the largest relative float deviation first, then the labels
    that one run alone has, at most SHOWN lines of records."""
    theirs, ours = dict(parent), dict(tree)
    moved = [(label, _deviation(theirs[label], t)) for label, t in tree
             if label in theirs and _sha(theirs[label]) != _sha(t)]
    moved.sort(key=lambda record: -math.inf if record[1] is None else -record[1])
    counts = "" if len(parent) == len(tree) else f" (the parent has {len(parent)})"
    lines = [f"{label}: " + ("a value that is not a float, or a shape"
                             if gap is None else f"{gap:.3g}") for label, gap in moved]
    lines += [f"{label}: only in the parent" for label, _ in parent if label not in ours]
    lines += [f"{label}: only in the tree" for label, _ in tree if label not in theirs]
    head = (f"{len(moved)} of {len(tree)} records differ{counts}, "
            "the largest relative deviation first")
    more = [f"... and {len(lines) - SHOWN} more"] if len(lines) > SHOWN else []
    return ["  " + line for line in [head, *lines[:SHOWN], *more]]


def compare(rev: str) -> int:
    """Print the digests of rev's src/ and of this checkout's src/ per
    section, and the records that differ under a section that differs; 1 if
    any section differs, 2 if a tree could not be run."""
    try:
        with extracted(rev, "src") as tmp:
            dumps = [tmp / "parent.pickle", tmp / "tree.pickle"]
            code = "import fingerprint; fingerprint.run({!r})"
            runs = [
                subprocess.Popen(
                    [sys.executable, "-c", code.format(str(dump))],
                    stdout=subprocess.PIPE, text=True,
                    env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{TOOLS}"},
                )
                for src, dump in zip((tmp / "src", ROOT / "src"), dumps)
            ]
            outputs = [run.communicate()[0] for run in runs]
            if any(run.returncode for run in runs):
                return 2
            records = [pickle.loads(dump.read_bytes()) for dump in dumps]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    parent, tree = ({line.split()[0]: line.split(maxsplit=3)
                     for line in out.splitlines()} for out in outputs)
    differs = False
    for name in SECTIONS:
        same = parent[name] == tree[name]
        differs |= not same
        line = f"{name:<10} parent {parent[name][2]} tree {tree[name][2]} "
        if same:
            print(line + "same")
        else:  # the details tell a rounding change from a broken output
            print(line + f"DIFFERS (parent: {parent[name][3]}; tree: {tree[name][3]})")
            print("\n".join(differences(records[0][name], records[1][name])))
    return int(differs)


def run(dump=None) -> None:
    """Print each section's count, digest and details; with dump, a path,
    also pickle every section's records to it, for compare."""
    started = time.monotonic()
    records = {}
    for name, section in SECTIONS.items():
        count, digest, detail = section()
        print(f"{name:<10} {count:>4} {digest.hexdigest()} {detail}".rstrip())
        records[name] = digest.records
    if dump:
        Path(dump).write_bytes(pickle.dumps(records))
    print(f"fingerprint: {time.monotonic() - started:.1f} s", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV",
                        help="compare with the src/ of this git revision")
    args = parser.parse_args()
    if args.parent:
        return compare(args.parent)
    run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
