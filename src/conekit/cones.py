"""Membership tests for LP-tractable subcones of the PSD-plus-nonnegative
cone, with verifiable witness decompositions A = S + N.

Every test is one-sided: a "member" verdict carries a certificate, while
"not identified" asserts nothing about non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lp as lpmod
from .linalg import (
    EigenPair,
    as_sym_matrix,
    eigen_decompose,
    is_psd_cholesky,
)

MEMBER = "member"
NOT_IDENTIFIED = "not_identified"

LP_FAMILIES = ("G", "Fplus", "Fpm")

CONE_ORDER = ("N", "DD", "H", *LP_FAMILIES, "L")

EPS_ALPHA = 1e-9  # membership threshold on the LP optimum


@dataclass
class MembershipVerdict:
    status: str
    cone: str
    alpha_star: float | None = None
    s_part: np.ndarray | None = None
    n_part: np.ndarray | None = None
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


def split_nonneg(a: np.ndarray):
    """Split A into (S, N): N keeps the strictly positive off-diagonal
    entries, S = A - N.  Exact arithmetic identity."""
    n_part = np.where(a > 0, a, 0.0)
    np.fill_diagonal(n_part, 0.0)
    return a - n_part, n_part


def in_H(a: np.ndarray) -> MembershipVerdict:
    """Nonnegativity-first test: member iff the residual S part is PSD."""
    s_part, n_part = split_nonneg(a)
    if is_psd_cholesky(s_part):
        return MembershipVerdict(MEMBER, "H", s_part=s_part, n_part=n_part)
    return MembershipVerdict(NOT_IDENTIFIED, "H")


@lru_cache(maxsize=64)
def _pairs(n: int):
    """np.triu_indices(n), computed once per n and read-only."""
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def sd_basis(p: np.ndarray, kind: str):
    """Semidefinite basis E_ij = v v^T built from the columns of p, over the
    pairs i <= j in row-major upper-triangle order: v = (p_i + p_j) / 2, or
    for kind "minus" v = (p_i - p_j) / 2 off the diagonal.  Returns (i, j, v)
    with one column of v per pair; for nonsingular p the n(n+1)/2 matrices
    span the symmetric matrices."""
    iu, ju = _pairs(p.shape[0])
    sign = np.where((kind == "minus") & (iu != ju), -1.0, 1.0)
    return iu, ju, (p[:, iu] + sign * p[:, ju]) / 2.0


def _lp_layout(ep: EigenPair, family: str):
    """Basis vectors and caps of one detection LP.

    Returns (vectors, caps): omega variable k pairs with the basis element
    vectors[:, k] vectors[:, k]^T and is capped above by caps[k] (lambda_i
    on the diagonal terms, 0 on the rest).
    """
    if family == "G":
        return ep.P, ep.lam
    iu, ju, plus = sd_basis(ep.P, "plus")
    caps = np.where(iu == ju, ep.lam[iu], 0.0)
    if family == "Fplus":
        return plus, caps
    if family == "Fpm":
        off = iu != ju
        minus = sd_basis(ep.P, "minus")[2][:, off]
        caps = np.concatenate([caps, np.zeros(minus.shape[1])])
        return np.hstack([plus, minus]), caps
    raise ValueError(f"unknown LP family {family!r}")


def build_lp(ep: EigenPair, family: str) -> lpmod.LinearProgram:
    """Detection LP for one family: maximize the entrywise floor alpha of the
    candidate nonnegative part, subject to the PSD-part caps.

    Variables are the k basis weights omega, each capped by the bound
    omega_k <= caps[k], then the free beta.  Rows are one per pair i <= j,
    saying that entry (i, j) of sum_k omega_k E_k minus beta is at least
    alpha0 = min N(caps).  The floor is alpha0 + beta, and the bound point
    omega = caps, beta = 0, where lp.solve starts, is feasible.

    Sizes: n(n+1)/2 rows plus k capped variables, with k = n for G, n(n+1)/2
    for Fplus and n^2 for Fpm; counting each cap as a constraint, as the
    paper does, gives n(n+3)/2, n(n+1) and n(3n+1)/2 constraints.
    """
    vectors, caps = _lp_layout(ep, family)
    iu, ju = _pairs(ep.n)
    pairs = vectors[iu] * vectors[ju]
    alpha0 = float(np.min(pairs @ caps))
    a = np.column_stack([pairs, -np.ones(iu.size)])
    objective = np.zeros(caps.size + 1)
    objective[-1] = 1.0
    return lpmod.LinearProgram(objective, a, alpha0, hi=np.append(caps, np.inf))


def check_membership_lp(a: np.ndarray, ep: EigenPair, family: str) -> MembershipVerdict:
    """Solve the family LP for a given factorization of A and assemble the
    witness decomposition on success.  A caller may pass any factorization,
    so the pair is checked against A before its LP is trusted."""
    if ep.reconstruction_residual(a) > 1e-6:
        raise ValueError("eigen pair does not reconstruct the input matrix")
    tag = family if ep.orthogonal else family + "_hat"
    prog = build_lp(ep, family)
    sol = lpmod.solve(prog)
    if sol.status != lpmod.OPTIMAL:
        return MembershipVerdict(NOT_IDENTIFIED, tag, note=f"lp-{sol.status}")
    alpha = float(prog.rhs[0]) + sol.objective_value  # alpha0 + beta
    if alpha < -EPS_ALPHA:
        return MembershipVerdict(NOT_IDENTIFIED, tag, alpha_star=alpha)
    # the pair rows hold the basis entries, so they map omega to the upper
    # triangle of N = sum_k omega_k E_k
    k = prog.n_vars - 1
    iu, ju = _pairs(ep.n)
    n_part = np.empty_like(a)
    n_part[iu, ju] = prog.A[:, :k] @ sol.x[:k]
    n_part[ju, iu] = n_part[iu, ju]
    return MembershipVerdict(
        MEMBER, tag, alpha_star=alpha, s_part=a - n_part, n_part=n_part
    )


def psd_split(a: np.ndarray, ep: EigenPair | None = None):
    """Split A = A_plus - A_minus, both PSD, by clipping negative
    eigenvalues of ep, a decomposition P diag(lam) P^T of A (an orthogonal
    one is computed when not given).  Returns (A_plus, A_minus).  A_minus is
    PSD only if ep reconstructs A, so a given pair is checked against A."""
    if ep is None:
        ep = eigen_decompose(a)
    elif ep.reconstruction_residual(a) > 1e-6:
        raise ValueError("eigen pair does not reconstruct the input matrix")
    lam_plus = np.maximum(ep.lam, 0.0)
    a_plus = (ep.P * lam_plus) @ ep.P.T
    a_plus = (a_plus + a_plus.T) / 2.0
    return a_plus, a_plus - a


def in_L_bomze(a: np.ndarray, ep: EigenPair | None = None) -> MembershipVerdict:
    """Copositivity certificate via the eigenvalue-clip split.

    Finds a nonnegative x with A_plus x >= e as the row multipliers of the
    dual LP  max e.y  s.t.  A_plus y <= e, y >= 0, which is feasible at
    y = 0; when the per-coordinate curvature inequalities hold at x, A is
    certified copositive.  No S + N witness is claimed.  An unbounded dual
    means no such x exists, and the test cannot identify A.  ep, when given,
    is a decomposition of A, as psd_split takes and checks it.
    """
    a_plus, a_minus = psd_split(a, ep)
    prog = lpmod.LinearProgram(np.ones(len(a)), -a_plus, -1.0, lo=0.0)
    sol = lpmod.solve(prog)
    if sol.status != lpmod.OPTIMAL:
        note = "infeasible" if sol.status == lpmod.UNBOUNDED else sol.status
        return MembershipVerdict(NOT_IDENTIFIED, "L", note=f"lp-{note}")
    x = -sol.dual
    quad = float(x @ a_plus @ x)
    lhs = quad * np.diag(a_minus)
    rhs = (a_plus @ x) ** 2
    tol = 1e-9 * max(1.0, float(np.max(np.abs(rhs))))
    if np.all(lhs <= rhs + tol):
        return MembershipVerdict(MEMBER, "L", note="copositivity certificate")
    return MembershipVerdict(NOT_IDENTIFIED, "L", note="coordinate test failed")


def is_diagonally_dominant(a: np.ndarray) -> bool:
    """True iff every diagonal entry covers the absolute row sum off it."""
    off = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    return bool(np.all(np.diag(a) >= off))


def check_membership(
    a: np.ndarray, cone: str, ep: EigenPair | None = None
) -> MembershipVerdict:
    """Test A against one cone of CONE_ORDER.

    The LP families build their basis from ep when it is given (e.g. a
    non-orthogonal pair for the hat variants), else from an orthogonal
    decomposition of A.  The L test clips the eigenvalues of ep when it is
    orthogonal, else of its own orthogonal decomposition; either pair is
    checked against A.  The other cones ignore ep.
    """
    return _dispatch(as_sym_matrix(a), cone, ep)


def _dispatch(a: np.ndarray, cone: str, ep: EigenPair | None) -> MembershipVerdict:
    """check_membership on a matrix that as_sym_matrix already returned."""
    if cone == "N":
        if np.min(a) >= 0.0:
            return MembershipVerdict(
                MEMBER, "N", s_part=np.zeros_like(a), n_part=a.copy()
            )
        return MembershipVerdict(NOT_IDENTIFIED, "N")
    if cone == "DD":
        if is_diagonally_dominant(a):
            return MembershipVerdict(
                MEMBER, "DD", s_part=a.copy(), n_part=np.zeros_like(a)
            )
        return MembershipVerdict(NOT_IDENTIFIED, "DD")
    if cone == "H":
        return in_H(a)
    if cone == "L":
        return in_L_bomze(a, ep if ep is not None and ep.orthogonal else None)
    return check_membership_lp(a, ep or eigen_decompose(a), cone)


def membership_report(a: np.ndarray, cones=CONE_ORDER) -> list[MembershipVerdict]:
    """Run the selected cone tests in canonical order.

    The LP families and the L test share one orthogonal decomposition.  A
    test that raises an ArithmeticError or ValueError (numpy's LinAlgError
    is one) is recorded as NOT_IDENTIFIED with an "error:" note; other
    exceptions propagate.
    """
    a = as_sym_matrix(a)
    unknown = set(cones) - set(CONE_ORDER)
    if unknown:
        raise ValueError(f"unknown cones: {sorted(unknown)}")
    verdicts = []
    ep = None
    for cone in (c for c in CONE_ORDER if c in set(cones)):
        try:
            if ep is None and cone in (*LP_FAMILIES, "L"):
                ep = eigen_decompose(a)
            v = _dispatch(a, cone, ep)
        except (ArithmeticError, ValueError) as exc:  # record, keep testing
            v = MembershipVerdict(NOT_IDENTIFIED, cone, note=f"error: {exc}")
        verdicts.append(v)
    return verdicts
