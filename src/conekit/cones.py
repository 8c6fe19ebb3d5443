"""Membership tests for LP-tractable subcones of the PSD-plus-nonnegative
cone, with verifiable witness decompositions A = S + N.

Every test is one-sided: a "member" verdict carries a certificate, while
"not identified" asserts nothing about non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .linalg import (
    EigenPair,
    as_sym_matrix,
    congruence,
    eigen_decompose,
    is_psd_cholesky,
)

MEMBER = "member"
NOT_IDENTIFIED = "not_identified"

FAMILY_G = "G"
FAMILY_FPLUS = "Fplus"
FAMILY_FPM = "Fpm"
LP_FAMILIES = (FAMILY_G, FAMILY_FPLUS, FAMILY_FPM)

CONE_ORDER = ("N", "DD", "H", FAMILY_G, FAMILY_FPLUS, FAMILY_FPM, "L")

EPS_ALPHA = 1e-9  # membership threshold on the LP optimum


class RankDeficient(ValueError):
    """Supplied vectors are not linearly independent."""


@dataclass
class MembershipVerdict:
    status: str
    cone: str
    alpha_star: float | None = None
    s_part: np.ndarray | None = None
    n_part: np.ndarray | None = None
    # optimal nonnegative-part candidate, kept even when alpha_star < 0 so
    # partition algorithms can reuse it for child screening
    n_candidate: np.ndarray | None = None
    note: str = ""

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER

    def witness_residuals(self, a: np.ndarray) -> dict:
        """Numerical quality of the witness: split residual and N negativity."""
        if self.s_part is None or self.n_part is None:
            return {}
        scale = max(1.0, float(np.max(np.abs(a))))
        return {
            "split": float(np.max(np.abs(self.s_part + self.n_part - a))) / scale,
            "n_min": float(np.min(self.n_part)),
        }


@dataclass(frozen=True)
class PsdSplit:
    """A = a_plus - a_minus with both parts PSD."""

    a_plus: np.ndarray
    a_minus: np.ndarray


@dataclass(frozen=True)
class SdBasis:
    """n(n+1)/2 rank-one PSD matrices spanning the symmetric matrices.

    elements: list of (i, j, kind, matrix) with kind "plus" or "minus".
    """

    elements: tuple
    vectors: np.ndarray

    def matrices(self):
        return [m for _, _, _, m in self.elements]


def split_nonneg(a: np.ndarray):
    """Split A into (S, N): N keeps the strictly positive off-diagonal
    entries, S = A - N.  Exact arithmetic identity."""
    a = as_sym_matrix(a)
    n_part = np.where(a > 0, a, 0.0)
    np.fill_diagonal(n_part, 0.0)
    return a - n_part, n_part


def in_H(a: np.ndarray, tol: float = 1e-9) -> MembershipVerdict:
    """Nonnegativity-first test: member iff the residual S part is PSD."""
    s_part, n_part = split_nonneg(a)
    if is_psd_cholesky(s_part, tol):
        return MembershipVerdict(MEMBER, "H", s_part=s_part, n_part=n_part)
    return MembershipVerdict(NOT_IDENTIFIED, "H")


def _basis_vectors(p: np.ndarray, kind: str):
    """Semidefinite basis E_ij = v v^T over the pairs i <= j in row-major
    upper-triangle order: v = (p_i + p_j) / 2, or for kind "minus"
    v = (p_i - p_j) / 2 off the diagonal.  Returns (i, j, v) with one column
    of v per pair."""
    iu, ju = np.triu_indices(p.shape[0])
    sign = np.where((kind == "minus") & (iu != ju), -1.0, 1.0)
    return iu, ju, (p[:, iu] + sign * p[:, ju]) / 2.0


def sd_basis(vectors, kind: str = "plus", rank_tol: float = 1e-9) -> SdBasis:
    """Build a semidefinite basis from n linearly independent vectors.

    kind "plus" uses quarter outer products of pairwise sums; kind "minus"
    keeps the diagonal elements and uses pairwise differences off-diagonal.
    """
    p = np.asarray(vectors, dtype=float)
    if p.ndim != 2:
        p = np.column_stack(vectors)
    n = p.shape[0]
    if p.shape[1] != n:
        raise ValueError(f"expected {n} vectors of dimension {n}")
    if kind not in ("plus", "minus"):
        raise ValueError(f"unknown basis kind {kind!r}")
    s = np.linalg.svd(p, compute_uv=False)
    if np.sum(s > rank_tol * s.max(initial=0.0)) < n:
        raise RankDeficient("basis vectors are linearly dependent")
    iu, ju, v = _basis_vectors(p, kind)
    elems = tuple(
        (int(i), int(j), "plus" if kind == "plus" or i == j else "minus",
         np.outer(v[:, k], v[:, k]))
        for k, (i, j) in enumerate(zip(iu, ju))
    )
    return SdBasis(elems, p.copy())


def _lp_layout(ep: EigenPair, family: str):
    """Basis vectors and caps of one detection LP.

    Returns (vectors, caps): omega variable k pairs with the basis element
    vectors[:, k] vectors[:, k]^T and is capped above by caps[k] (lambda_i
    on the diagonal terms, 0 on the rest).
    """
    if family == FAMILY_G:
        return ep.P, ep.lam
    iu, ju, plus = _basis_vectors(ep.P, "plus")
    caps = np.where(iu == ju, ep.lam[iu], 0.0)
    if family == FAMILY_FPLUS:
        return plus, caps
    if family == FAMILY_FPM:
        off = iu != ju
        minus = _basis_vectors(ep.P, "minus")[2][:, off]
        caps = np.concatenate([caps, np.zeros(minus.shape[1])])
        return np.hstack([plus, minus]), caps
    raise ValueError(f"unknown LP family {family!r}")


def build_lp(ep: EigenPair, family: str) -> lpmod.LinearProgram:
    """Detection LP for one family: maximize the entrywise floor alpha of the
    candidate nonnegative part, subject to the PSD-part caps.

    Variables are the basis weights omega, then alpha.  Rows are the caps
    omega_k <= caps[k], then one row per pair i <= j saying that entry (i, j)
    of sum_k omega_k E_k is at least alpha.

    Sizes: G has n+1 variables and n(n+3)/2 constraints; Fplus has
    n(n+1)/2+1 and n(n+1); Fpm has n^2+1 and n(3n+1)/2.
    """
    vectors, caps = _lp_layout(ep, family)
    iu, ju = np.triu_indices(ep.n)
    k, npair = caps.size, iu.size
    a = np.block([
        [np.eye(k), np.zeros((k, 1))],
        [vectors[iu] * vectors[ju], -np.ones((npair, 1))],
    ])
    senses = np.repeat([lpmod.LE, lpmod.GE], [k, npair])
    rhs = np.concatenate([caps, np.zeros(npair)])
    objective = np.zeros(k + 1)
    objective[k] = 1.0
    return lpmod.LinearProgram(objective, a, senses, rhs)


def check_membership_lp(
    a: np.ndarray,
    ep: EigenPair,
    family: str,
    eps_alpha: float = EPS_ALPHA,
    feas_tol: float = lpmod.DEFAULT_FEAS_TOL,
    max_iters: int | None = None,
) -> MembershipVerdict:
    """Solve the family LP for a given factorization of A and assemble the
    witness decomposition on success."""
    a = as_sym_matrix(a)
    if ep.reconstruction_residual(a) > 1e-6:
        raise ValueError("eigen pair does not reconstruct the input matrix")
    tag = family if ep.orthogonal else family + "_hat"
    prog = build_lp(ep, family)
    sol = lpmod.solve(prog, feas_tol=feas_tol, max_iters=max_iters)
    if sol.status != lpmod.OPTIMAL:
        return MembershipVerdict(NOT_IDENTIFIED, tag, note=f"lp-{sol.status}")
    alpha = float(sol.objective_value)
    # the pair rows hold the basis entries, so they map omega to the upper
    # triangle of N = sum_k omega_k E_k
    k = prog.n_vars - 1
    iu, ju = np.triu_indices(ep.n)
    n_cand = np.empty_like(a)
    n_cand[iu, ju] = prog.A[k:, :k] @ sol.x[:k]
    n_cand[ju, iu] = n_cand[iu, ju]
    if alpha < -eps_alpha:
        return MembershipVerdict(
            NOT_IDENTIFIED, tag, alpha_star=alpha, n_candidate=n_cand
        )
    return MembershipVerdict(
        MEMBER,
        tag,
        alpha_star=alpha,
        s_part=a - n_cand,
        n_part=n_cand,
        n_candidate=n_cand,
    )


def psd_split(a: np.ndarray) -> PsdSplit:
    """Split A = A_plus - A_minus by clipping negative eigenvalues."""
    a = as_sym_matrix(a)
    ep = eigen_decompose(a)
    lam_plus = np.maximum(ep.lam, 0.0)
    a_plus = (ep.P * lam_plus) @ ep.P.T
    a_plus = (a_plus + a_plus.T) / 2.0
    return PsdSplit(a_plus=a_plus, a_minus=a_plus - a)


def in_L_bomze(
    a: np.ndarray, f: np.ndarray | None = None, feas_tol: float = 1e-8
) -> MembershipVerdict:
    """Copositivity certificate via the eigenvalue-clip split.

    Finds a nonnegative x with A_plus x >= e by LP; when the per-coordinate
    curvature inequalities hold at x, A is certified copositive.  No S + N
    witness is claimed.  LP infeasibility means the test cannot identify A.
    """
    a = as_sym_matrix(a)
    n = a.shape[0]
    split = psd_split(a)
    f = np.ones(n) if f is None else np.asarray(f, dtype=float)
    prog = lpmod.LinearProgram(-f, split.a_plus, lpmod.GE, 1.0, lo=0.0)
    sol = lpmod.solve(prog, feas_tol=feas_tol)
    if sol.status != lpmod.OPTIMAL:
        return MembershipVerdict(NOT_IDENTIFIED, "L", note=f"lp-{sol.status}")
    x = sol.x
    quad = float(x @ split.a_plus @ x)
    lhs = quad * np.diag(split.a_minus)
    rhs = (split.a_plus @ x) ** 2
    tol = 1e-9 * max(1.0, float(np.max(np.abs(rhs))))
    if np.all(lhs <= rhs + tol):
        return MembershipVerdict(MEMBER, "L", note="copositivity certificate")
    return MembershipVerdict(NOT_IDENTIFIED, "L", note="coordinate test failed")


def is_diagonally_dominant(a: np.ndarray) -> bool:
    """True iff every diagonal entry covers the absolute row sum off it."""
    a = as_sym_matrix(a)
    off = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    return bool(np.all(np.diag(a) >= off))


def membership_report(
    a: np.ndarray,
    cones=CONE_ORDER,
    ep: EigenPair | None = None,
    eps_alpha: float = EPS_ALPHA,
) -> list[MembershipVerdict]:
    """Run the selected cone tests in canonical order.

    An eigen pair may be supplied (e.g. a non-orthogonal one for the hat
    variants); otherwise one orthogonal decomposition is computed and shared
    by the LP families.  Per-test failures are recorded, not raised.
    """
    a = as_sym_matrix(a)
    selected = [c for c in CONE_ORDER if c in set(cones)]
    unknown = set(cones) - set(CONE_ORDER)
    if unknown:
        raise ValueError(f"unknown cones: {sorted(unknown)}")
    verdicts = []
    shared_ep = ep
    for cone in selected:
        try:
            if cone == "N":
                if np.min(a) >= 0.0:
                    v = MembershipVerdict(
                        MEMBER, "N", s_part=np.zeros_like(a), n_part=a.copy()
                    )
                else:
                    v = MembershipVerdict(NOT_IDENTIFIED, "N")
            elif cone == "DD":
                if is_diagonally_dominant(a):
                    v = MembershipVerdict(
                        MEMBER, "DD", s_part=a.copy(), n_part=np.zeros_like(a)
                    )
                else:
                    v = MembershipVerdict(NOT_IDENTIFIED, "DD")
            elif cone == "H":
                v = in_H(a)
            elif cone == "L":
                v = in_L_bomze(a)
            else:
                if shared_ep is None:
                    shared_ep = eigen_decompose(a)
                v = check_membership_lp(a, shared_ep, cone, eps_alpha=eps_alpha)
        except Exception as exc:  # aggregate, never abort the other tests
            v = MembershipVerdict(NOT_IDENTIFIED, cone, note=f"error: {exc}")
        verdicts.append(v)
    return verdicts
