"""The benchmark's workloads: how instances are generated, the one public
conekit call that solves each, and an untimed oracle that checks the answer
without trusting conekit's own solvers.

Instance i of stream s is generated from SeedSequence([s, i]), as the CLI's
bench suites derive their rows, so any instance can be rebuilt on its own
and the program only ever sees the generated matrices and graphs.

Timed runs solve a catalogue, stream CATALOGUE_SEED, in an order drawn from
the run's seed, and check a fresh sample from the run's own stream.  The
catalogue is fixed because the cost of one probe-driven instance is chaotic
in its input: qpbound instances range from 0.1 s to 9 s, and relabelling
the coordinates of one QP moved its partition from 34 to 403 cells.  Fresh
draws per seed therefore moved the medians of 30-second runs by 15-35%
between seeds, which no run length that fits the time budget averages out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from conekit import cones, instances
from conekit.copositivity import CopoConfig

TOL = 1e-7
CATALOGUE_SEED = 0
PROBE_CFG = CopoConfig(cone_family="Fpm", max_iterations=200_000)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (SeedSequence, index) -> instance
    solve: Callable  # instance -> answer; the timed call into conekit
    check: Callable  # (instance, answer) -> failure reason, or "" when correct
    rate: float  # instances per second at the defining commit on its host; sizes a run


# -- detect: one membership report over all seven cones -------------------


def _make_spn(seq, index):
    a, _, _ = instances.gen_random_spn(16, seq)
    return a


def _report(a):
    return cones.membership_report(a)


def _check_report(a, verdicts) -> str:
    by_cone = {v.cone: v for v in verdicts}
    for v in verdicts:
        if v.note.startswith("error:"):
            return f"{v.cone}: {v.note}"
    if not by_cone["Fpm"].is_member:
        return "F+- did not identify a PSD+N matrix"
    scale = max(1.0, float(np.max(np.abs(a))))
    for v in verdicts:
        if not v.is_member or v.s_part is None:
            continue  # L certifies copositivity without an S + N witness
        split = float(np.max(np.abs(v.s_part + v.n_part - a)))
        if split > TOL * scale:
            return f"{v.cone}: witness misses A by {split:.3e}"
        if float(np.min(v.n_part)) < -TOL:
            return f"{v.cone}: N part has entry {np.min(v.n_part):.3e}"
        low = float(np.min(np.linalg.eigvalsh(v.s_part)))
        if low < -TOL:
            return f"{v.cone}: S part has eigenvalue {low:.3e}"
    alphas = [by_cone[c].alpha_star for c in ("G", "Fplus", "Fpm")]
    if None in alphas:
        return f"an LP family returned no optimum: {alphas}"
    if alphas[0] > alphas[1] + TOL or alphas[1] > alphas[2] + TOL:
        return f"alpha nesting G <= F+ <= F+- broken: {alphas}"
    return ""


# -- qpbound: bracket a planted simplex-QP optimum ------------------------


def _make_qp(seq, index):
    return instances.gen_planted_qp(8, 4, -10.0, seed=seq)


def _bracket(qp):
    return instances.qp_optimum(qp.Q, PROBE_CFG, eta=0.1)


def _check_bracket(qp, bound) -> str:
    if not bound.converged:
        return f"bracket [{bound.lo}, {bound.hi}] did not converge"
    if not bound.lo <= qp.t <= bound.hi:
        return f"bracket [{bound.lo}, {bound.hi}] misses the planted optimum {qp.t}"
    return ""


# -- clique: clique number by copositivity probes ------------------------


def _make_graph(seq, index):
    # n cycles through 6, 7, 8 so any prefix of a stream holds an even mix
    # of sizes; the edge density and the edges come from the instance's seed
    rng = np.random.default_rng(seq)
    p = float(rng.uniform(0.3, 0.7))
    return instances.gen_gnp_graph(6 + index % 3, p, seed=rng)


def _clique(g):
    return instances.clique_number(g, PROBE_CFG)


def brute_force_clique(g) -> int:
    """Largest k such that some k nodes are pairwise adjacent."""
    for k in range(g.n, 1, -1):
        for nodes in itertools.combinations(range(g.n), k):
            if all(g.has_edge(i, j) for i, j in itertools.combinations(nodes, 2)):
                return k
    return 1


def _check_clique(g, omega) -> str:
    expected = brute_force_clique(g)
    if omega != expected:
        return f"clique number {omega}, brute force gives {expected}"
    return ""


WORKLOADS = {
    "detect": Workload("detect", _make_spn, _report, _check_report, 2.5),
    "qpbound": Workload("qpbound", _make_qp, _bracket, _check_bracket, 1.5),
    "clique": Workload("clique", _make_graph, _clique, _check_clique, 2.5),
}


def make_instances(workload: Workload, seed: int, start: int, count: int) -> list:
    return [
        workload.make(np.random.SeedSequence([seed, i]), i)
        for i in range(start, start + count)
    ]
