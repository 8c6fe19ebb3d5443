"""Copositivity testing by simplicial partition of the standard simplex.

A matrix is copositive iff its quadratic form is nonnegative on the standard
simplex.  The worklist algorithm removes a simplex once the congruence
V^T A V is certified to lie in a tractable subcone of the copositive cone,
bisects otherwise, and stops with a negative-vertex certificate as soon as
one appears.  The improved variant reuses a single global eigen pair to test
each cell with the hat (non-orthogonal) family before the exact per-cell
test.  Every removal rests on its own cell's membership verdict.  The same
partition, tested at a level that follows the best vertex found, bounds the
simplex QP and the clique number (see instances).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

import numpy as np

from . import cones
from .linalg import EigenPair, as_sym_matrix, congruence, eigen_decompose, unit_scale

COPOSITIVE = "copositive"
NOT_COPOSITIVE = "not_copositive"
INCONCLUSIVE = "inconclusive"

FAMILIES = ("N", "H", *cones.LP_FAMILIES)


class DegenerateEdge(ValueError):
    """The edge chosen for bisection is numerically a point."""


def longest_edge(v: np.ndarray):
    """(i, j, length) of the longest edge of the simplex with vertex columns
    v, lexicographic tie-break."""
    best = (0, 1, -1.0)
    for i in range(v.shape[1] - 1):
        d = v[:, i + 1 :] - v[:, i : i + 1]
        lengths = np.sqrt(np.sum(d * d, axis=0))
        j = int(np.argmax(lengths))
        if lengths[j] > best[2] + 1e-15:
            best = (i, i + 1 + j, float(lengths[j]))
    return best


def bisect(v: np.ndarray):
    """Split the simplex with (n, k) vertex matrix v at the midpoint of its
    longest edge (i, j).  Returns the two children: v with column i, resp.
    column j, replaced by the midpoint."""
    i, j, length = longest_edge(v)
    if length < 1e-14:
        raise DegenerateEdge(f"edge ({i}, {j}) has length {length:.3e}")
    mid = (v[:, i] + v[:, j]) / 2.0
    v_i, v_j = v.copy(), v.copy()
    v_i[:, i] = v_j[:, j] = mid
    return v_i, v_j


@dataclass
class CopoConfig:
    cone_family: str = "Fpm"
    use_alg2: bool = True
    max_iterations: int = 1_000_000
    time_limit: float = 300.0

    def __post_init__(self):
        if self.cone_family not in FAMILIES:
            raise ValueError(f"unknown cone family {self.cone_family!r}")
        it = self.max_iterations
        if isinstance(it, bool) or not isinstance(it, (int, np.integer)) or it <= 0:
            raise ValueError(f"max_iterations must be a positive integer, got {it!r}")
        t = self.time_limit
        if isinstance(t, bool) or not isinstance(t, Real) or not 0 < t < np.inf:
            raise ValueError("budgets must be positive and finite")


@dataclass
class CopoResult:
    outcome: str
    certificate: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


def test_copositive(a: np.ndarray, cfg: CopoConfig | None = None) -> CopoResult:
    """Decide copositivity within the configured budgets.

    "copositive" requires the worklist to empty with every simplex removed by
    a sound certificate; "not_copositive" always carries a simplex vertex at
    which the quadratic form is strictly negative; "inconclusive" names its
    reason (a budget, or an edge too short to bisect) in the stats.  A is
    decided at linalg.unit_scale's scale.
    """
    a = as_sym_matrix(a)
    return _partition(unit_scale(a)[0], cfg or CopoConfig(), lambda best: 0.0)[0]


def _partition(a: np.ndarray, cfg: CopoConfig, level, start=None):
    """Certify x^T A x >= level(best) on the standard simplex, for a matrix
    that as_sym_matrix already returned.

    best is the lowest raw value seen: at `start` first, when given (see
    _form_above), then at one vertex of each cell, picked off the congruence
    diagonal (the first below the cell's shift, else the lowest) and
    re-evaluated.  Cell columns lie on the simplex, so V^T (A - s E) V =
    V^T A V - s 11^T, and each cell is tested at the scalar shift
    s = level(best).  The run stops with "not_copositive" and the best point
    once best < s.  A cell removed at shift s certifies x^T A x >= s on it;
    level never rises as best falls, so every removal still holds at the
    final shift, and the LIFO worklist needs no reordering.  A cell test
    that raises an ArithmeticError or ValueError is counted in
    stats["errors"] and the cell is bisected.  Returns (CopoResult, best).
    """
    n = a.shape[0]
    family = cfg.cone_family
    alg2 = cfg.use_alg2 and family in cones.LP_FAMILIES
    # the per-cell membership sequence: the hat LP (alg 2 only), then the
    # exact-family test; the root cell V = I takes the first step only, as
    # there V^T A V - shift is A - shift and the exact LP is the hat LP
    steps = ("hat", "exact") if alg2 else ("exact",)
    best = np.inf if start is None else _form_above(a, start)
    best_v = start
    hat_shift = hat_ep = None  # the global eigen pair of A - hat_shift * E

    worklist = [np.eye(n)]  # vertex matrices, LIFO
    iterations = lp_calls = 0
    removals = {"member": 0, "member_hat": 0}
    errors: dict = {}  # exception type name -> failed cell tests
    started = time.monotonic()

    def finish(outcome, reason="", certificate=None):
        stats = {
            "iterations": iterations,
            "lp_calls": lp_calls,
            "removals": dict(removals),
            "fineness": max((longest_edge(c)[2] for c in worklist), default=0.0),
            "worklist": len(worklist),
            "wall_time": time.monotonic() - started,
            "reason": reason,
            "errors": dict(errors),
        }
        return CopoResult(outcome, certificate, stats), best

    while worklist:
        if iterations >= cfg.max_iterations:
            return finish(INCONCLUSIVE, "iteration-limit")
        if time.monotonic() - started > cfg.time_limit:
            return finish(INCONCLUSIVE, "time-limit")
        cell = worklist.pop()
        iterations += 1

        vtav = congruence(a, cell)
        vals = np.diag(vtav)  # the vertex values
        # refute with the first vertex below the cell's shift, else take the lowest
        below = np.flatnonzero(vals < level(min(best, vals.min())))
        v = cell[:, below[0] if below.size else np.argmin(vals)]
        value = float(v @ a @ v)
        if value < best:
            best, best_v = value, v.copy()
        shift = level(best)
        if best < shift:
            return finish(NOT_COPOSITIVE, certificate=best_v)
        vtav = vtav - shift

        removed = None  # removal kind once a test certifies the cell
        try:
            for step in steps[: 1 if iterations == 1 else None]:
                ep = None  # the exact step lets the cone test decompose vtav
                if step == "hat":
                    if shift != hat_shift:
                        hat_shift, hat_ep = shift, eigen_decompose(a - shift)
                    ep = EigenPair(cell.T @ hat_ep.P, hat_ep.lam, orthogonal=False)
                lp_calls += family in cones.LP_FAMILIES
                verdict = cones._dispatch(vtav, family, ep, capped=True)
                if verdict.is_member:
                    removed = "member_hat" if step == "hat" else "member"
                    break
        except (ArithmeticError, ValueError) as exc:
            # solver trouble is never grounds for removal; count it and refine
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1

        if removed:
            removals[removed] += 1
            continue
        try:
            worklist.extend(bisect(cell))
        except DegenerateEdge:
            worklist.append(cell)
            return finish(INCONCLUSIVE, "degenerate-edge")

    return finish(COPOSITIVE)


def _form_above(a: np.ndarray, x: np.ndarray) -> float:
    """x^T A x / (sum x)^2 on the floats' exact values, rounded up, so never
    below the form at the simplex point x / sum x, as a float sum can be."""
    (xs, _), (an, den) = _dyadic(x), _dyadic(a)  # x's denominator cancels
    exact = Fraction(int(xs @ an @ xs), den * int(xs.sum()) ** 2)
    value = float(exact)  # the nearest float, so at most one step below
    return float(np.nextafter(value, np.inf)) if value < exact else value


def _dyadic(v: np.ndarray):
    """Python integers k (an object array) and a power of two d: v = k / d."""
    pairs = [t.as_integer_ratio() for t in v.ravel().tolist()]
    den = max(q for _, q in pairs)
    k = np.array([p * (den // q) for p, q in pairs], dtype=object)
    return k.reshape(v.shape), den
