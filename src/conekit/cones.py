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
    unit_scale,
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
        """Witness quality: split residual, N's least entry, S's least eigenvalue."""
        if self.s_part is None or self.n_part is None:
            return {}
        scale = float(np.max(np.abs(a))) or 1.0
        return {
            "split": float(np.max(np.abs(self.s_part + self.n_part - a))) / scale,
            "n_min": float(np.min(self.n_part)),
            "s_min": float(np.linalg.eigvalsh(self.s_part)[0]) / scale,
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
def _sd_index(n: int, family: str):
    """Read-only (i, j, sign) per basis vector (p_i + sign p_j) / 2: "Fplus"
    and "minus" over the pairs i <= j of np.triu_indices(n), sign -1 off the
    diagonal for "minus"; "Fpm" is Fplus, then minus's off-diagonal columns.
    Fplus's i and j are also the detection LP's pair rows."""
    if family not in ("Fplus", "minus", "Fpm"):
        raise ValueError(f"unknown LP family {family!r}")
    iu, ju = np.triu_indices(n)
    off = iu != ju
    sign = np.where((family == "minus") & off, -1.0, 1.0)
    if family == "Fpm":
        iu, ju, sign = np.r_[iu, iu[off]], np.r_[ju, ju[off]], np.r_[sign, -sign[off]]
    for t in (iu, ju, sign):
        t.flags.writeable = False
    return iu, ju, sign


def sd_basis(p: np.ndarray, family: str) -> np.ndarray:
    """Semidefinite basis vectors from the columns of p, one column v per LP
    variable of family, whose basis element is v v^T: p itself for "G", else
    v = (p_i + sign p_j) / 2 through _sd_index's table.  For nonsingular p the
    n(n+1)/2 elements of "Fplus" (or of "minus") span the symmetric matrices.

    Sizes: n columns for G, n(n+1)/2 for Fplus and n^2 for Fpm (DD in the
    basis p).  Counting each y_k >= 0 of build_lp, the paper's cap on
    omega_k, as one constraint, as the paper does (beta >= 0 is not one of
    its constraints), gives n(n+3)/2, n(n+1) and n(3n+1)/2 constraints."""
    if family == "G":
        return p
    i, j, sign = _sd_index(p.shape[0], family)
    return (p[:, i] + sign * p[:, j]) / 2.0


def build_lp(a: np.ndarray, vectors: np.ndarray, capped=False):
    """Detection LP over the columns v_k of vectors: maximize the entrywise
    floor alpha of N = A - S, S = sum_k y_k v_k v_k^T with y >= 0.  Over
    sd_basis of a pair that reconstructs A it is the paper's LP in
    y_k = cap_k - omega_k.  Returns (LinearProgram, alpha0).

    Posed as lp.solve takes it, in y >= 0 and beta >= 0, with one row per
    pair i <= j, n(n+1)/2 rows and k + 1 variables:
        sum_k y_k v_k[i] v_k[j] + beta <= A[i, j] - alpha0,
    alpha0 = min A[i, j] over those pairs.  The rhs is >= 0 exactly, since
    alpha0 is the least of those same floats, and the floor is alpha0 +
    beta.  beta >= 0 loses nothing: y = 0, beta = 0 is feasible.

    capped appends the objective row beta <= max(0, -alpha0) as row
    n(n+1)/2 + 1, so the optimum floor is min(alpha*, max(alpha0, 0)).
    All rows are written into one preallocated constraint matrix and rhs.
    """
    iu, ju, _ = _sd_index(len(a), "Fplus")
    m, k = iu.size, vectors.shape[1]
    entries = a[iu, ju]
    alpha0 = float(np.min(entries))
    c = np.zeros(k + 1)
    c[-1] = 1.0
    lhs, b = np.empty((m + capped, k + 1)), np.empty(m + capped)
    np.multiply(vectors[iu], vectors[ju], out=lhs[:m, :k])
    lhs[:m, k] = 1.0
    np.subtract(entries, alpha0, out=b[:m])
    if capped:  # the cap row is the objective row itself
        lhs[m], b[m] = c, max(0.0, -alpha0)
    return lpmod.LinearProgram(c, lhs, b), alpha0


def check_membership_lp(
    a: np.ndarray, ep: EigenPair, family: str, capped=False
) -> MembershipVerdict:
    """Solve build_lp over sd_basis(ep.P, family) for a factorization ep of
    A and assemble the witness on success: S = R R^T with R = V sqrt(y),
    PSD by construction, and N = A - S.  The witness holds for any basis,
    so ep is not checked: the pairs the package builds are A's by
    construction.  A capped LP gives the same verdict, and its alpha_star
    is min(alpha*, max(alpha0, 0))."""
    vectors = sd_basis(ep.P, family)
    prog, alpha0 = build_lp(a, vectors, capped=capped)
    return _lp_verdict(a, vectors, lpmod.solve(prog), alpha0, family, ep)


def _fplus_and_fpm(a: np.ndarray, ep: EigenPair) -> list[MembershipVerdict]:
    """The F+ and F+- verdicts from one simplex: F+'s basis is the first
    n(n+1)/2 columns of F+-'s, so F+-'s LP with the rest held at 0 is F+'s
    LP, and lp.solve continues from F+'s optimum to F+-'s."""
    vectors = sd_basis(ep.P, "Fpm")
    prog, alpha0 = build_lp(a, vectors)
    m = len(a) * (len(a) + 1) // 2
    sol = lpmod.solve(prog, held=range(m, vectors.shape[1]))
    return [_lp_verdict(a, vectors[:, :m], sol.first, alpha0, "Fplus", ep),
            _lp_verdict(a, vectors, sol, alpha0, "Fpm", ep)]


def _lp_verdict(a, vectors, sol, alpha0, family, ep) -> MembershipVerdict:
    """The verdict of a solved detection LP over the columns of vectors,
    sd_basis(ep.P, family)'s; a non-orthogonal pair tags it family + "_hat"."""
    tag = family if ep.orthogonal else family + "_hat"
    if sol.status != lpmod.OPTIMAL:
        return MembershipVerdict(NOT_IDENTIFIED, tag, note=f"lp-{sol.status}")
    alpha = alpha0 + sol.objective_value
    if alpha < -EPS_ALPHA:
        return MembershipVerdict(NOT_IDENTIFIED, tag, alpha_star=alpha)
    r = vectors * np.sqrt(sol.x[: vectors.shape[1]])
    s_part = r @ r.T  # numpy forms R R^T as one syrk, exactly symmetric
    return MembershipVerdict(
        MEMBER, tag, alpha_star=alpha, s_part=s_part, n_part=a - s_part
    )


def psd_split(a: np.ndarray, ep: EigenPair):
    """Split A = A_plus - A_minus by clipping the negative eigenvalues of ep,
    a decomposition P diag(lam) P^T of A.  Returns (A_plus, A_minus), both
    PSD when ep reconstructs A, as the callers' pairs do."""
    a_plus = EigenPair(ep.P, np.maximum(ep.lam, 0.0)).reconstruct()
    return a_plus, a_plus - a


def in_L_bomze(a: np.ndarray, ep: EigenPair) -> MembershipVerdict:
    """Copositivity certificate via the eigenvalue-clip split.

    Finds a nonnegative x with A_plus x >= e as the row multipliers of the
    dual LP  max e.y  s.t.  A_plus y <= e, y >= 0, which is feasible at
    y = 0; when the per-coordinate curvature inequalities hold at x, A is
    certified copositive.  No S + N witness is claimed.  An unbounded dual
    means no such x exists, and the test cannot identify A.  ep is an
    orthogonal decomposition of A, as membership_report hands it.
    """
    a_plus, a_minus = psd_split(a, ep)
    prog = lpmod.LinearProgram(np.ones(len(a)), a_plus, 1.0)
    sol = lpmod.solve(prog)
    if sol.status != lpmod.OPTIMAL:
        note = "infeasible" if sol.status == lpmod.UNBOUNDED else sol.status
        return MembershipVerdict(NOT_IDENTIFIED, "L", note=f"lp-{note}")
    x = sol.dual
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


def _dispatch(
    a: np.ndarray, cone: str, ep: EigenPair | None, capped=False
) -> MembershipVerdict:
    """One cone test on a matrix that as_sym_matrix already returned."""
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
        return in_L_bomze(a, ep)
    return check_membership_lp(a, ep or eigen_decompose(a), cone, capped=capped)


def membership_report(a: np.ndarray, cones=CONE_ORDER) -> list[MembershipVerdict]:
    """A's verdicts for the named cones, one per distinct name, in
    CONE_ORDER's order; [cone] asks for one.  Names outside CONE_ORDER are
    refused before any work, and A is decided at linalg.unit_scale's scale.

    The LP families and the L test share one orthogonal decomposition of A,
    made here.  With both Fplus and Fpm wanted, one simplex decides the two
    (_fplus_and_fpm).  A test that raises an ArithmeticError or ValueError
    (numpy's LinAlgError is one) is recorded as NOT_IDENTIFIED with an
    "error:" note, for both cones of the shared simplex; other exceptions
    propagate.  Each verdict is mapped back to A exactly: alpha*, S and N
    times 2^-k.
    """
    if isinstance(cones, str):
        raise ValueError(f"cones must be a list of cone names, got {cones!r}")
    wanted = set(cones)  # read once: cones may be an iterator
    unknown = wanted - set(CONE_ORDER)
    if unknown:
        raise ValueError(f"unknown cones: {sorted(unknown)}")
    a, k = unit_scale(as_sym_matrix(a))
    shared = {"Fplus", "Fpm"} <= wanted  # one simplex decides the two
    steps = [["Fplus", "Fpm"] if shared and c == "Fplus" else [c]
             for c in CONE_ORDER if c in wanted and not (shared and c == "Fpm")]
    ep, verdicts = None, []
    for step in steps:
        try:
            if ep is None and step[0] in (*LP_FAMILIES, "L"):
                ep = eigen_decompose(a)
            found = (_fplus_and_fpm(a, ep) if len(step) == 2
                     else [_dispatch(a, *step, ep)])
        except (ArithmeticError, ValueError) as exc:  # record, keep testing
            note = f"error: {exc}"
            found = [MembershipVerdict(NOT_IDENTIFIED, c, note=note) for c in step]
        for v in found:
            if v.alpha_star is not None:
                v.alpha_star = float(np.ldexp(v.alpha_star, -k))
            if v.s_part is not None:
                v.s_part, v.n_part = np.ldexp(v.s_part, -k), np.ldexp(v.n_part, -k)
        verdicts += found
    return verdicts
