"""Output fingerprint of conekit: one sha256 digest and a count per section.

Runs a fixed suite through the public entry points of whichever conekit is on
PYTHONPATH and hashes every output bit that a refactor must keep:

- partition: test_copositive on 25 matrices x N/H/G/F+/F+- x alg 1/2
  (outcome, certificate, every stats field but wall_time);
- report:    membership_report on 40 gen_random_spn(12) draws x 7 cones
  (status, alpha*, S, N, note);
- bracket:   qp_optimum on 10 planted QPs (n=8), with a count of the
  brackets that hold the planted optimum t;
- clique:    clique_number on 6 random graphs (the clique number, and the
  stats of its partition run but wall_time);
- lp:        lp.solve on 64 mixed LPs full of singleton rows, == rows and
  tied rows, all solved as ordinary rows and all feasible at their bound
  point, where lp.solve starts (status, x, duals per original row, pivots);
- cli:       cli.main on fixed files for membership, copositive, qpbound,
  clique and a small bench suite (exit code, and every record field but
  wall_time and config, or the printed line).

Compare a change with its parent by running this file against both source
trees and diffing the output (the run time goes to stderr):

    PYTHONPATH=src python tools/fingerprint.py > after.txt
    PYTHONPATH=../parent/src python tools/fingerprint.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from conekit import cli, cones, instances, lp
from conekit.copositivity import CopoConfig
from conekit.copositivity import test_copositive as run_copositive
from conekit.linalg import format_matrix

FAMILIES = ("N", "H", "G", "Fplus", "Fpm")
LE, GE, EQ = "<=", ">=", "=="  # row tags of the mixed LPs


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
    return mats


def partition_section():
    h = hashlib.sha256()
    tally: Counter = Counter()
    runs = 0
    for a in _partition_matrices():
        for family in FAMILIES:
            for alg2 in (False, True):
                cfg = CopoConfig(cone_family=family, use_alg2=alg2,
                                 max_iterations=1500)
                res = run_copositive(a, cfg)
                stats = {k: v for k, v in res.stats.items() if k != "wall_time"}
                _feed(h, [res.outcome, res.certificate, stats])
                tally[res.stats["reason"] or res.outcome] += 1
                runs += 1
    detail = " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
    return runs, h.hexdigest(), detail


def report_section():
    h = hashlib.sha256()
    count = 0
    for seed in range(40):
        a = instances.gen_random_spn(12, seed)[0]
        for v in cones.membership_report(a):
            _feed(h, [v.status, v.cone, v.alpha_star, v.s_part, v.n_part, v.note])
            count += 1
    return count, h.hexdigest(), ""


def bracket_section():
    h = hashlib.sha256()
    cfg = CopoConfig(max_iterations=20000)
    hits = 0  # brackets holding the planted optimum, with no tolerance
    for seed in range(10):
        qp = instances.gen_planted_qp(8, 4, -10.0, seed=seed)
        b = instances.qp_optimum(qp.Q, cfg, eta=0.1)
        _feed(h, [b.lo, b.hi, b.converged])
        hits += b.lo <= qp.t <= b.hi
    return 10, h.hexdigest(), f"t in [lo, hi]: {hits}/10"


def clique_section():
    h = hashlib.sha256()
    cfg = CopoConfig(max_iterations=20000)
    partition = instances._partition
    runs = []  # stats of each partition run clique_number makes, but wall_time

    def recorded(*args):
        res, best = partition(*args)
        runs.append({k: v for k, v in res.stats.items() if k != "wall_time"})
        return res, best

    instances._partition = recorded
    try:
        for seed in range(6):
            g = instances.gen_gnp_graph(6 + seed % 3, 0.5, seed=seed)
            _feed(h, instances.clique_number(g, cfg))
    finally:
        instances._partition = partition
    _feed(h, runs)
    return 6, h.hexdigest(), f"cells={sum(r['iterations'] for r in runs)}"


def _singleton_lp(rng):
    """A random LP around its bound point x_b whose rows are mostly
    singletons: repeated bounds (exact ties, also through scaled copies), ==
    singletons, negative coefficients, signed zeros and plain rows, each
    holding at x_b, many of them tightly.  The solver keeps each of them as a
    row (the detection LPs give their caps as bounds instead), so these LPs
    exercise degenerate and tied rows.  Returns (objective, rows, senses,
    rhs, lo, hi) with a tag from LE, GE and EQ per row."""
    n = int(rng.integers(2, 6))
    x0 = np.round(rng.normal(size=n), 1)
    lo = np.where(rng.uniform(size=n) < 0.3, x0 - 1.0, -np.inf)
    hi = np.where(rng.uniform(size=n) < 0.3, x0 + 1.0, np.inf)
    x_b = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    rows, senses, rhs = [], [], []

    def add(a, sense, b):
        rows.append(a)
        senses.append(sense)
        rhs.append(b)

    for _ in range(int(rng.integers(n + 2, 3 * n + 4))):
        u = rng.uniform()
        a = np.zeros(n)
        j = int(rng.integers(0, n))
        if u < 0.7:
            a[j] = float(rng.choice([1.0, -1.0, 2.0, -0.5]))
            if u < 0.1:
                add(a, EQ, float(a @ x_b))
            else:
                sense = LE if rng.uniform() < 0.5 else GE
                step = float(rng.choice([0.0, 0.5, 1.0]))
                b = float(a @ x_b) + (step if sense == LE else -step)
                add(a, sense, b)
                if rng.uniform() < 0.4:  # a tie: the same bound again
                    scale = float(rng.choice([1.0, 2.0]))
                    add(scale * a, sense, scale * b)
            if u < 0.15:  # a zero bound that x_b meets, either sign of zero
                add(a, LE if a @ x_b <= 0 else GE, -0.0 if u < 0.12 else 0.0)
        else:
            a = rng.normal(size=n)
            sense = LE if rng.uniform() < 0.5 else GE
            add(a, sense, float(a @ x_b) + (1.0 if sense == LE else -1.0))
    return rng.normal(size=n), rows, senses, rhs, lo, hi


def _ge_rows(rows, senses, rhs):
    """Tagged rows as >= rows: the <= and == rows negated, then the >= and
    == rows.  Returns (A, rhs, origin, sign), row r of A being sign[r] times
    original row origin[r]."""
    senses = np.asarray(senses)
    le = np.flatnonzero(senses != GE)
    ge = np.flatnonzero(senses != LE)
    origin = np.concatenate([le, ge])
    sign = np.repeat([-1.0, 1.0], [le.size, ge.size])
    a = np.asarray(rows, dtype=float)[origin] * sign[:, None]
    return a, np.asarray(rhs, dtype=float)[origin] * sign, origin, sign


def lp_section():
    h = hashlib.sha256()
    rng = np.random.default_rng(31)
    progs = [_singleton_lp(rng) for _ in range(63)]
    # tied rows: x <= 1 twice around x <= 3, y fenced on both sides
    progs.append((
        [1.0, 1.0],
        [[1, 0], [1, 0], [1, 0], [0, 1], [0, -1], [0, 1], [1, 1]],
        [LE, LE, LE, GE, GE, LE, LE],
        [1, 3, 1, -2, -1, 1, 5],
        -np.inf,
        np.inf,
    ))
    statuses: Counter = Counter()
    for objective, rows, senses, rhs, lo, hi in progs:
        a, b, origin, sign = _ge_rows(rows, senses, rhs)
        sol = lp.solve(lp.LinearProgram(objective, a, b, lo, hi))
        dual = None if sol.dual is None else np.bincount(
            origin, weights=sign * sol.dual, minlength=len(rows))
        _feed(h, [sol.status, sol.x, sol.objective_value, dual, sol.iterations])
        statuses[sol.status] += 1
    detail = " ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    return len(progs), h.hexdigest(), detail


def _cli_runs(tmp: Path) -> list:
    """Subcommand argument lists over input files written into tmp."""

    def matrix(name, a):
        path = tmp / name
        path.write_text(format_matrix(a))
        return str(path)

    def k_gamma(n, gamma):
        return instances.max_clique_matrix(instances.complete_graph(n), gamma)

    spn = matrix("spn.txt", instances.gen_random_spn(6, 3)[0])
    m2 = matrix("m2.txt", [[1, 5, -2], [5, 1, -2], [-2, -2, 4]])
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
         "task": "copositive", "cone": "F+-", "alg": 1},
        {"instance": {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0,
                      "gamma": -1.2}, "task": "copositive", "cone": "F+"},
        {"instance": spn5, "task": "copositive", "cone": "N", "max_iter": 3},
    ]}))
    js = ["--format", "json"]
    return [
        ["membership", spn, *js],
        ["membership", m2, "--cone", "H,G,F+-", *js],
        ["copositive", k55, *js],
        ["copositive", k45, "--alg", "1", *js],
        ["copositive", k50, "--cone", "N", "--max-iter", "20", *js],
        ["copositive", spn, "--cone", "G", "--alg", "1", *js],
        ["qpbound", qp, "--eta", "0.1"],
        ["qpbound", qp, "--cone", "F+", "--max-iter", "3"],
        ["clique", str(graph)],
        ["clique", str(graph), "--cone", "G", "--alg", "1", "--max-iter", "5"],
        ["bench", str(suite), *js],
    ]


def cli_section():
    h = hashlib.sha256()
    exits: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        runs = _cli_runs(Path(tmp))
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            text = out.getvalue()
            if text.startswith("{"):  # JSON records
                text = [
                    {k: v for k, v in json.loads(line).items()
                     if k not in ("wall_time", "config")}
                    for line in text.splitlines()
                ]
            _feed(h, [argv[0], code, text])
            exits[f"exit{code}"] += 1
    detail = " ".join(f"{k}={v}" for k, v in sorted(exits.items()))
    return len(runs), h.hexdigest(), detail


def main() -> None:
    started = time.monotonic()
    for name, section in (
        ("partition", partition_section),
        ("report", report_section),
        ("bracket", bracket_section),
        ("clique", clique_section),
        ("lp", lp_section),
        ("cli", cli_section),
    ):
        count, digest, detail = section()
        print(f"{name:<10} {count:>4} {digest} {detail}".rstrip())
    print(f"fingerprint: {time.monotonic() - started:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
