"""Copositivity testing by simplicial partition of the standard simplex.

A matrix is copositive iff its quadratic form is nonnegative on the standard
simplex.  The worklist algorithm removes a simplex once the congruence
V^T A V is certified to lie in a tractable subcone of the copositive cone,
bisects otherwise, and stops with a negative certificate, the lowest point
found from a replicator start on, as soon as one appears.  A cell below
the root is tested in the basis of its parent's failed witness first, the
basis pursuit of Ahmadi & Hall (arXiv:1510.01597) run down the partition
tree.  Every removal rests on its own cell's membership verdict, and a
failed cell test is counted, never a removal.  The same
partition, tested at a level that follows the best point found, bounds the
simplex QP and the clique number (see instances).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .linalg import as_sym_matrix, check_int, check_real, congruence, unit_scale

COPOSITIVE = "copositive"
NOT_COPOSITIVE = "not_copositive"
INCONCLUSIVE = "inconclusive"

FAMILIES = ("N", "H", *cones.LP_FAMILIES)
_REPLICATOR_STEPS = 100  # fixed; on planted QPs 50 give as few cells, 25 more


def longest_edge(v: np.ndarray):
    """(i, j, length) of the longest edge of the simplex with vertex columns
    v.  Each row i offers its first longest edge (i, j > i); in row order,
    an offer replaces the kept edge only when longer by more than 1e-15."""
    d = v[:, None, :] - v[:, :, None]  # d[:, i, j] = v_j - v_i, one pass
    lengths = np.sqrt(np.sum(d * d, axis=0))[:-1]
    lengths[np.tri(*lengths.shape, dtype=bool)] = -1.0  # only j > i is an edge
    cols, tops = np.argmax(lengths, axis=1), np.max(lengths, axis=1)
    best = (0, 1, -1.0)
    for i, (j, length) in enumerate(zip(cols.tolist(), tops.tolist())):
        if length > best[2] + 1e-15:
            best = (i, j, length)
    return best


def bisect(v: np.ndarray, q: np.ndarray | None = None):
    """Split the simplex with (n, k) vertex matrix v at the midpoint of its
    longest edge (i, j).  Returns the two children, each v T with T the
    identity but for column i, resp. j, (e_i + e_j) / 2, as pairs (v T,
    T^T q), T^T q the basis the child inherits (None without q); None if
    that edge is numerically a point (shorter than 1e-14)."""
    i, j, length = longest_edge(v)
    if length < 1e-14:
        return None
    mid = (v[:, i] + v[:, j]) / 2.0
    v_i, v_j = v.copy(), v.copy()
    v_i[:, i] = v_j[:, j] = mid
    q_i = q_j = q
    if q is not None:
        q_i, q_j = q.copy(), q.copy()
        q_i[i] = q_j[j] = (q[i] + q[j]) / 2.0
    return (v_i, q_i), (v_j, q_j)


@dataclass(frozen=True)
class CopoConfig:
    """Budgets and cone family of a copositivity test, checked once at
    construction; frozen, so no later assignment skips the checks (a changed
    config comes from dataclasses.replace, which checks it again)."""

    cone_family: str = "Fpm"
    max_iterations: int = 1_000_000
    time_limit: float = 300.0

    def __post_init__(self):
        if self.cone_family not in FAMILIES:
            raise ValueError(f"unknown cone family {self.cone_family!r}")
        check_int("max_iterations", self.max_iterations, 1)
        check_real("time_limit", self.time_limit, positive=True)


@dataclass
class CopoResult:
    outcome: str
    certificate: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


def test_copositive(a: np.ndarray, cfg: CopoConfig | None = None) -> CopoResult:
    """Decide copositivity within the configured budgets.

    "copositive" requires the worklist to empty with every simplex removed by
    a sound certificate; "not_copositive" always carries a point of the
    simplex at which the quadratic form is strictly negative, the lowest one
    found: the replicator start (see _partition) or a cell vertex, whose
    values are exact; "inconclusive" names its reason (a budget, or an edge too
    short to bisect) in the stats.
    """
    return _partition(as_sym_matrix(a), cfg or CopoConfig(), lambda best: 0.0)[0]


def _partition(a: np.ndarray, cfg: CopoConfig, level):
    """Certify x^T A x >= level(best) on the standard simplex, for a matrix
    that as_sym_matrix already returned, decided at linalg.unit_scale's scale.

    best is the lowest value seen, each one _form_above's, so never below
    the form at its point: first at _replicator_start(a), taken on the
    caller's matrix so that its bits do not depend on the scale; then at
    the lowest vertex of each cell, picked off the congruence diagonal and
    valued when that diagonal entry is below best.  Cell columns lie on the
    simplex, so V^T (A - s E) V = V^T A V - s 11^T, and each cell is tested
    at the scalar shift s = level(best).  The run stops with
    "not_copositive" and the best point once best < s.  A cell removed at
    shift s certifies x^T A x >= s on it; level never rises as best falls,
    so every removal still holds at the final shift, and the LIFO worklist
    needs no reordering.  cones._cell_test tests a cell, in an LP family in
    the basis bisect hands down, if any, then in its own, and names its
    outcome, counted by one rule: a removal in stats["removals"] (by the
    inherited stage, "member_inherited"), a failure in stats["errors"]
    ("numerical" for an LP stage that ended so, or the type name of an
    ArithmeticError or ValueError the test raised), and a failed cell is
    bisected.  Returns (CopoResult, best).
    """
    start = _replicator_start(a)
    a, k = unit_scale(a)  # level and the returned best keep the caller's units
    # x^T A x > -4 at the scale 2^k, so a level below -8 there is raised to -8
    floor, caller_level = -8.0 * 2.0**-k, level  # -inf where that overflows
    level = lambda best: math.ldexp(max(caller_level(math.ldexp(best, -k)), floor), k)
    family = cfg.cone_family
    best, best_v = _form_above(a, start), start

    worklist = [(np.eye(a.shape[0]), None)]  # (vertex matrix, inherited basis), LIFO
    iterations = lp_calls = 0
    removals = {"member": 0, "member_inherited": 0}
    errors: dict = {}  # failure name -> failed cell tests
    started = time.monotonic()

    def finish(outcome, reason="", certificate=None):
        stats = {
            "iterations": iterations,
            "lp_calls": lp_calls,
            "removals": dict(removals),
            "worklist": len(worklist),
            "wall_time": time.monotonic() - started,
            "reason": reason,
            "errors": dict(errors),
        }
        return CopoResult(outcome, certificate, stats), math.ldexp(best, -k)

    while worklist:
        if iterations >= cfg.max_iterations:
            return finish(INCONCLUSIVE, "iteration-limit")
        if time.monotonic() - started > cfg.time_limit:
            return finish(INCONCLUSIVE, "time-limit")
        cell, inherited = worklist.pop()
        iterations += 1

        vtav = congruence(a, cell)
        i = int(np.argmin(np.diag(vtav)))  # the lowest vertex
        if vtav[i, i] < best:  # valued exactly: a float v^T A v can read low
            value = _form_above(a, cell[:, i])
            if value < best:
                best, best_v = value, cell[:, i].copy()
        shift = level(best)
        if best < shift:
            return finish(NOT_COPOSITIVE, certificate=best_v)
        vtav = vtav - shift

        try:  # a removal or a failure, and the basis handed down
            lp_calls += family in cones.LP_FAMILIES
            kind, basis = cones._cell_test(vtav, family, inherited)
        except (ArithmeticError, ValueError) as exc:  # never grounds for removal
            kind, basis = type(exc).__name__, None
        tally = removals if kind in removals else errors
        if kind:
            tally[kind] = tally.get(kind, 0) + 1
        if tally is removals:
            continue
        children = bisect(cell, basis)
        if children is None:
            worklist.append((cell, inherited))
            return finish(INCONCLUSIVE, "degenerate-edge")
        worklist.extend(children)

    return finish(COPOSITIVE)


def _form_above(a: np.ndarray, x: np.ndarray) -> float:
    """x^T A x / (sum x)^2 on the floats' exact values, rounded up, so never
    below the form at the simplex point x / sum x, as a float sum can be."""
    (xs, _), (an, den) = _dyadic(x), _dyadic(a)  # x's denominator cancels
    p, q = int(xs @ an @ xs), den * int(xs.sum()) ** 2
    value = p / q  # correctly rounded, so at most one step below p / q
    num, div = value.as_integer_ratio()  # value < p / q, exactly
    return float(np.nextafter(value, np.inf)) if num * q < p * div else value


def _dyadic(v: np.ndarray):
    """Python integers k (an object array) and a power of two d: v = k / d."""
    pairs = [t.as_integer_ratio() for t in v.ravel().tolist()]
    den = max(q for _, q in pairs)
    k = np.array([p * (den // q) for p, q in pairs], dtype=object)
    return k.reshape(v.shape), den


def _replicator_start(q: np.ndarray) -> np.ndarray:
    """_REPLICATOR_STEPS replicator steps x <- x (Bx) / x^T B x, B = max Q + 1 - Q,
    from the barycentre (Bomze 1997): x stays on the simplex, x^T Q x never rises.
    Each step writes into x with a positional out and divides by a 0-d array,
    since a ufunc converts a scalar operand on every call."""
    b = np.max(q) / 2 - q / 2 + 0.5  # B / 2 exactly, and it cannot overflow
    x = np.full(q.shape[0], 1.0 / q.shape[0])
    bx, s, bdot, xdot = np.empty_like(x), np.empty(()), b.dot, x.dot
    multiply, divide = np.multiply, np.divide
    for _ in range(_REPLICATOR_STEPS):  # in place, the bits of x * bx / (x @ bx)
        bdot(x, bx)
        xdot(bx, s)
        multiply(x, bx, x)
        divide(x, s, x)
    return x
