"""Copositivity testing by simplicial partition of the standard simplex.

A matrix is copositive iff its quadratic form is nonnegative on the standard
simplex.  The worklist algorithm removes a simplex once the congruence
V^T A V is certified to lie in a tractable subcone of the copositive cone,
bisects otherwise, and stops with a negative-vertex certificate as soon as
one appears.  The improved variant reuses a single global eigen pair to test
the hat (non-orthogonal) family first and screens bisection children against
the parent's LP witness without solving new LPs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .linalg import EigenPair, as_sym_matrix, congruence, eigen_decompose

COPOSITIVE = "copositive"
NOT_COPOSITIVE = "not_copositive"
INCONCLUSIVE = "inconclusive"

FAMILIES = ("N", "H", cones.FAMILY_G, cones.FAMILY_FPLUS, cones.FAMILY_FPM)

_SCREEN_TOL = 1e-11  # entrywise nonnegativity slack for witness screening
AUDIT_CAP = 200  # audit records kept per run


class DegenerateEdge(ValueError):
    """The edge chosen for bisection is numerically a point."""


@dataclass
class SimplexCell:
    """A simplex in the standard simplex, stored as its vertex matrix."""

    vertices: np.ndarray  # (n, k) columns, nonnegative, each summing to one
    depth: int = 0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[1]

    def longest_edge(self):
        """(i, j, length) of the longest edge, lexicographic tie-break."""
        v = self.vertices
        k = v.shape[1]
        best = (0, 1, -1.0)
        for i in range(k - 1):
            d = v[:, i + 1 :] - v[:, i : i + 1]
            lengths = np.sqrt(np.sum(d * d, axis=0))
            j = int(np.argmax(lengths))
            if lengths[j] > best[2] + 1e-15:
                best = (i, i + 1 + j, float(lengths[j]))
        return best

    def diameter(self) -> float:
        return self.longest_edge()[2]


def standard_simplex(n: int) -> SimplexCell:
    return SimplexCell(np.eye(n), depth=0)


def bisect(cell: SimplexCell):
    """Split a simplex at the midpoint of its longest edge.

    Returns (child_i, child_j, T_i, T_j) where each T maps parent vertex
    coordinates to child coordinates (V_child = V_parent @ T), which is what
    witness screening needs.
    """
    i, j, length = cell.longest_edge()
    if length < 1e-14:
        raise DegenerateEdge(f"edge ({i}, {j}) has length {length:.3e}")
    k = cell.n_vertices
    mid_col = np.zeros(k)
    mid_col[i] = 0.5
    mid_col[j] = 0.5
    t_i = np.eye(k)
    t_i[:, i] = mid_col
    t_j = np.eye(k)
    t_j[:, j] = mid_col
    child_i = SimplexCell(cell.vertices @ t_i, cell.depth + 1)
    child_j = SimplexCell(cell.vertices @ t_j, cell.depth + 1)
    return child_i, child_j, t_i, t_j


def vertex_negative(a: np.ndarray, cell: SimplexCell):
    """First vertex v with v^T A v < 0, or None."""
    v = cell.vertices
    vals = np.einsum("ik,ij,jk->k", v, a, v)
    for k in range(v.shape[1]):
        if vals[k] < 0.0:
            return v[:, k].copy()
    return None


@dataclass
class CopoConfig:
    cone_family: str = cones.FAMILY_FPM
    use_alg2: bool = True
    max_iterations: int = 1_000_000
    time_limit: float = 300.0
    eps_alpha: float = cones.EPS_ALPHA
    audit: bool = False

    def __post_init__(self):
        if self.cone_family not in FAMILIES:
            raise ValueError(f"unknown cone family {self.cone_family!r}")
        if self.max_iterations <= 0 or self.time_limit <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class CopoResult:
    outcome: str
    certificate: np.ndarray | None = None
    stats: dict = field(default_factory=dict)
    audit_records: list = field(default_factory=list)


def test_copositive(a: np.ndarray, cfg: CopoConfig | None = None) -> CopoResult:
    """Decide copositivity within the configured budgets.

    "copositive" requires the worklist to empty with every simplex removed by
    a sound certificate; "not_copositive" always carries a simplex vertex at
    which the quadratic form is strictly negative; exhausted budgets yield
    "inconclusive" with the reason in the stats.
    """
    a = as_sym_matrix(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("copositivity test needs dimension >= 2")
    if cfg is None:
        cfg = CopoConfig()
    family = cfg.cone_family
    alg2 = cfg.use_alg2 and family in cones.LP_FAMILIES
    global_ep = eigen_decompose(a) if alg2 else None
    # the per-cell membership sequence: the hat LP (alg 2 only), then the
    # exact-family test
    steps = ("hat", "exact") if alg2 else ("exact",)

    worklist = [standard_simplex(n)]  # LIFO
    iterations = lp_calls = 0
    removals = {"member": 0, "member_hat": 0, "screen": 0}
    warm = {"used_exact": 0, "used_hat": 0}
    audit: list = []
    started = time.monotonic()

    def finish(outcome, reason="", certificate=None):
        stats = {
            "iterations": iterations,
            "lp_calls": lp_calls,
            "removals": dict(removals),
            "fineness": max((c.diameter() for c in worklist), default=0.0),
            "worklist": len(worklist),
            "wall_time": time.monotonic() - started,
            "reason": reason,
            "warm_start": dict(warm),
        }
        return CopoResult(outcome, certificate, stats, audit)

    def record_removal(kind, cell, verdict):
        removals[kind] += 1
        if cfg.audit and len(audit) < AUDIT_CAP:
            audit.append({
                "kind": kind,
                "vertices": cell.vertices.copy(),
                "verdict": verdict,
            })

    while worklist:
        if iterations >= cfg.max_iterations:
            return finish(INCONCLUSIVE, "iteration-limit")
        if time.monotonic() - started > cfg.time_limit:
            return finish(INCONCLUSIVE, "time-limit")
        cell = worklist.pop()
        iterations += 1

        vtav = congruence(a, cell.vertices)
        # vertex values are the diagonal of the congruence
        neg = np.flatnonzero(np.diag(vtav) < 0.0)
        if neg.size:
            v = cell.vertices[:, int(neg[0])].copy()
            if float(v @ a @ v) < 0.0:  # re-evaluate the raw certificate
                return finish(NOT_COPOSITIVE, certificate=v)

        removed = None  # removal kind once a test certifies the cell
        screen_witness = None  # local-frame nonnegative part for children
        try:
            for step in steps:
                if family == "N":
                    verdict = None
                    is_member = np.min(vtav) >= 0.0
                elif family == "H":
                    verdict = cones.in_H(vtav)
                    is_member = verdict.is_member
                else:
                    if step == "hat":
                        q = cell.vertices.T @ global_ep.P
                        ep = EigenPair(q, global_ep.lam, orthogonal=False)
                    else:
                        ep = eigen_decompose(vtav)
                    lp_calls += 1
                    verdict = cones.check_membership_lp(
                        vtav, ep, family, eps_alpha=cfg.eps_alpha
                    )
                    is_member = verdict.is_member
                if is_member:
                    removed = "member_hat" if step == "hat" else "member"
                    break
                if alg2 and verdict.n_candidate is not None:
                    screen_witness = (verdict.n_candidate, step)
        except Exception:
            # solver trouble is never grounds for removal; refine instead
            removed = None
            screen_witness = None

        if removed:
            record_removal(removed, cell, verdict)
            continue
        child_i, child_j, t_i, t_j = bisect(cell)
        for child, t in ((child_i, t_i), (child_j, t_j)):
            if screen_witness is not None:
                n_small, source = screen_witness
                n_child = t.T @ n_small @ t
                if np.min(n_child) >= -_SCREEN_TOL * max(1.0, np.max(np.abs(n_small))):
                    record_removal("screen", child, None)
                    warm["used_" + source] += 1
                    continue
            worklist.append(child)

    return finish(COPOSITIVE)
