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


def vertex_negative(a: np.ndarray, cell: SimplexCell, eps_vertex: float = 0.0):
    """First vertex v with v^T A v < -eps_vertex, or None."""
    v = cell.vertices
    vals = np.einsum("ik,ij,jk->k", v, a, v)
    for k in range(v.shape[1]):
        if vals[k] < -eps_vertex:
            return v[:, k].copy()
    return None


@dataclass
class CopoConfig:
    cone_family: str = cones.FAMILY_FPM
    use_alg2: bool = True
    eps_vertex: float = 0.0
    max_iterations: int = 1_000_000
    time_limit: float = 300.0
    selection_rule: str = "lifo"  # or "fifo"
    eps_alpha: float = cones.EPS_ALPHA
    audit: bool = False
    audit_cap: int = 200

    def __post_init__(self):
        if self.cone_family not in FAMILIES:
            raise ValueError(f"unknown cone family {self.cone_family!r}")
        if self.selection_rule not in ("lifo", "fifo"):
            raise ValueError(f"unknown selection rule {self.selection_rule!r}")
        if self.max_iterations <= 0 or self.time_limit <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class Partition:
    """Worklist of unexplored simplices plus bookkeeping counters."""

    worklist: list = field(default_factory=list)
    iterations: int = 0
    lp_calls: int = 0
    removals: dict = field(default_factory=lambda: {
        "member": 0, "member_hat": 0, "screen": 0,
    })

    def fineness(self) -> float:
        if not self.worklist:
            return 0.0
        return max(cell.diameter() for cell in self.worklist)


@dataclass
class CopoResult:
    outcome: str
    certificate: np.ndarray | None = None
    stats: dict = field(default_factory=dict)
    audit_records: list = field(default_factory=list)


def _member_exact(vtav, family, cfg, part):
    """Exact-family membership test of a congruence matrix."""
    if family == "N":
        return (np.min(vtav) >= 0.0), None
    if family == "H":
        verdict = cones.in_H(vtav)
        return verdict.is_member, verdict
    ep = eigen_decompose(vtav)
    part.lp_calls += 1
    verdict = cones.check_membership_lp(vtav, ep, family, eps_alpha=cfg.eps_alpha)
    return verdict.is_member, verdict


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
    lp_family = cfg.cone_family in cones.LP_FAMILIES
    alg2 = cfg.use_alg2 and lp_family
    global_ep = eigen_decompose(a) if alg2 else None

    part = Partition(worklist=[standard_simplex(n)])
    audit: list = []
    started = time.monotonic()
    warm = {"used_exact": 0, "used_hat": 0}

    def finish_inconclusive(reason):
        stats = _stats(part, started, reason, warm)
        return CopoResult(INCONCLUSIVE, stats=stats, audit_records=audit)

    def record_removal(kind, cell, verdict):
        part.removals[kind] += 1
        if cfg.audit and len(audit) < cfg.audit_cap:
            audit.append({
                "kind": kind,
                "vertices": cell.vertices.copy(),
                "verdict": verdict,
            })

    while part.worklist:
        if part.iterations >= cfg.max_iterations:
            return finish_inconclusive("iteration-limit")
        if time.monotonic() - started > cfg.time_limit:
            return finish_inconclusive("time-limit")
        if cfg.selection_rule == "lifo":
            cell = part.worklist.pop()
        else:
            cell = part.worklist.pop(0)
        part.iterations += 1

        vtav = congruence(a, cell.vertices)
        # vertex values are the diagonal of the congruence
        diag = np.diag(vtav)
        neg = np.flatnonzero(diag < -cfg.eps_vertex)
        if neg.size:
            v = cell.vertices[:, int(neg[0])].copy()
            if float(v @ a @ v) < 0.0:  # re-evaluate the raw certificate
                stats = _stats(part, started, "", warm)
                return CopoResult(
                    NOT_COPOSITIVE, certificate=v, stats=stats, audit_records=audit
                )

        screen_witness = None  # local-frame nonnegative part for children
        removed = False
        try:
            if alg2:
                q = cell.vertices.T @ global_ep.P
                ep_hat = EigenPair(q, global_ep.lam, orthogonal=False)
                part.lp_calls += 1
                verdict = cones.check_membership_lp(
                    vtav, ep_hat, cfg.cone_family, eps_alpha=cfg.eps_alpha
                )
                if verdict.is_member:
                    record_removal("member_hat", cell, verdict)
                    removed = True
                elif verdict.n_candidate is not None:
                    screen_witness = (verdict.n_candidate, "hat")
                if not removed:
                    is_m, verdict = _member_exact(vtav, cfg.cone_family, cfg, part)
                    if is_m:
                        record_removal("member", cell, verdict)
                        removed = True
                    elif verdict is not None and verdict.n_candidate is not None:
                        screen_witness = (verdict.n_candidate, "exact")
            else:
                is_m, verdict = _member_exact(vtav, cfg.cone_family, cfg, part)
                if is_m:
                    record_removal("member", cell, verdict)
                    removed = True
        except Exception:
            # solver trouble is never grounds for removal; refine instead
            removed = False
            screen_witness = None

        if removed:
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
            part.worklist.append(child)

    stats = _stats(part, started, "", warm)
    return CopoResult(COPOSITIVE, stats=stats, audit_records=audit)


def _stats(part: Partition, started: float, reason: str, warm: dict) -> dict:
    return {
        "iterations": part.iterations,
        "lp_calls": part.lp_calls,
        "removals": dict(part.removals),
        "fineness": part.fineness(),
        "worklist": len(part.worklist),
        "wall_time": time.monotonic() - started,
        "reason": reason,
        "warm_start": dict(warm),
    }
