"""Membership tests for LP-tractable subcones of the PSD-plus-nonnegative
cone, with verifiable witness decompositions A = S + N.

Every test is one-sided: a "member" verdict carries a certificate, while
"not identified" asserts nothing about non-membership.  G, F+ and F+- are
nested column prefixes of one LP, which _lp_families alone poses and solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import lp as lpmod
from .linalg import as_sym_matrix, eigen_decompose, is_psd_cholesky, unit_scale

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
def _sd_index(n: int):
    """Read-only (i, j, sign) per basis vector (p_i + sign p_j) / 2 of Fpm,
    whose every LP family is a column prefix: G's n columns i = j, then
    Fplus's sums over i < j in np.triu_indices(n, 1) order, then their
    differences; and build_lp's pair rows np.triu_indices(n)."""
    d, (iu, ju), rows = np.arange(n), np.triu_indices(n, 1), np.triu_indices(n)
    i, j = np.r_[d, iu, iu], np.r_[d, ju, ju]
    sign = np.r_[np.ones(n + iu.size), -np.ones(iu.size)]
    for t in (i, j, sign, *rows):
        t.flags.writeable = False
    return i, j, sign, rows


def _width(n: int, family: str) -> int:
    """The number of basis vectors of family: n, n(n+1)/2 or n^2."""
    if family not in LP_FAMILIES:
        raise ValueError(f"unknown LP family {family!r}")
    return (n, n * (n + 1) // 2, n * n)[LP_FAMILIES.index(family)]


def sd_basis(p: np.ndarray, family: str) -> np.ndarray:
    """Semidefinite basis vectors from the columns of p, one column v per LP
    variable of family, whose basis element is v v^T: the first _width(n,
    family) columns (p_i + sign p_j) / 2 of _sd_index's table, G's (p_i +
    p_i) / 2 = p_i bit for bit.  For nonsingular p the n(n+1)/2 elements of
    "Fplus" (or G's and the differences) span the symmetric matrices.

    Sizes: n columns for G, n(n+1)/2 for Fplus and n^2 for Fpm (DD in the
    basis p).  Counting each y_k >= 0 of build_lp, the paper's cap on
    omega_k, as one constraint, as the paper does (beta >= 0 is not one of
    its constraints), gives n(n+3)/2, n(n+1) and n(3n+1)/2 constraints."""
    i, j, sign, _ = _sd_index(p.shape[0])
    w = _width(p.shape[0], family)
    return (p[:, i[:w]] + sign[:w] * p[:, j[:w]]) / 2.0


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
    All rows are written into one preallocated constraint matrix and rhs,
    the pair rows block by block of i.
    """
    n = len(a)
    iu, ju = _sd_index(n)[3]
    m, k = iu.size, vectors.shape[1]
    entries = a[iu, ju]
    alpha0 = float(np.min(entries))
    c = np.zeros(k + 1)
    c[-1] = 1.0
    lhs, b = np.empty((m + capped, k + 1)), np.empty(m + capped)
    r, v = 0, np.ascontiguousarray(vectors)  # contiguous rows; sd_basis's is F-ordered
    for i in range(n):  # the rows of pairs (i, j >= i), with no gathered copy
        np.multiply(v[i], v[i:], out=lhs[r : r + n - i, :k])
        r += n - i
    lhs[:m, k] = 1.0
    np.subtract(entries, alpha0, out=b[:m])
    if capped:  # the cap row is the objective row itself
        lhs[m], b[m] = c, max(0.0, -alpha0)
    return lpmod.LinearProgram(c, lhs, b), alpha0


def check_membership_lp(a: np.ndarray, p: np.ndarray, family: str) -> MembershipVerdict:
    """Solve the paper's uncapped build_lp over sd_basis(p, family) for a
    nonsingular basis p, A's eigenvectors for the paper's LP, and assemble
    the witness on success: S = R R^T with R = V sqrt(y), PSD by
    construction, and N = A - S; it holds for any basis, so p is not checked."""
    return _lp_families(a, [p], [family], False)[0][0]


def _lp_families(a: np.ndarray, bases, families, capped):
    """The one poser, solver and reader of detection LPs: the LP of the
    widest of families (LP_FAMILIES in order) over sd_basis of each basis,
    side by side, in stages of one simplex, each freeing the next family's
    columns of a basis, one block.  A stage not optimal restarts its own
    (after a first stage, the next) and the later ones in a fresh simplex.
    The cap is lp.solve's bound: the stages after one at the cap repeat its
    solution and take its verdict, so a G member there gives F+ and F+-
    members with G's witness.  Returns the verdicts, one per stage, and the
    last stage's R (S = R R^T), None if it is not optimal or one certified."""
    n, w = len(a), _width(len(a), families[-1])
    vectors = [sd_basis(p, families[-1]) for p in bases]
    vectors = vectors[0] if len(bases) == 1 else np.concatenate(vectors, axis=1)
    prog, alpha0 = build_lp(a, vectors, capped=capped)
    ends = [b * w + _width(n, f) for b in range(len(bases)) for f in families]
    verdicts, prev = [], None
    while (t0 := len(verdicts)) < len(ends):
        sol = lpmod.solve(prog, held=[slice(*e) for e in zip(ends[t0:], ends[t0 + 1 :])],
                          bound=prog.b[-1] if capped else np.inf)
        kept = sol.stages[: max(1, len(sol.stages) - (sol.status != lpmod.OPTIMAL))]
        for t, s in enumerate(kept, t0):  # a stage that repeats the last takes its verdict
            cone = families[t % len(families)]
            verdicts.append(replace(verdicts[-1], cone=cone) if s is prev
                            else _lp_verdict(a, vectors, s, alpha0, cone, ends[t]))
            prev = s
    needs_r = kept[-1].x is not None and not any(v.is_member for v in verdicts)
    return verdicts, vectors * np.sqrt(kept[-1].x[:-1]) if needs_r else None


def _lp_verdict(a, vectors, sol, alpha0, family, k) -> MembershipVerdict:
    """The verdict of a solved detection LP over the first k columns of vectors."""
    if sol.status != lpmod.OPTIMAL:
        return MembershipVerdict(NOT_IDENTIFIED, family, note=f"lp-{sol.status}")
    alpha = alpha0 + sol.objective_value
    if alpha < -EPS_ALPHA:
        return MembershipVerdict(NOT_IDENTIFIED, family, alpha_star=alpha)
    r = vectors[:, :k] * np.sqrt(sol.x[:k])  # x[-1] is beta
    s_part = r @ r.T  # numpy forms R R^T as one syrk, exactly symmetric
    return MembershipVerdict(
        MEMBER, family, alpha_star=alpha, s_part=s_part, n_part=a - s_part
    )


def psd_split(a: np.ndarray, lam: np.ndarray, p: np.ndarray):
    """Split A = A_plus - A_minus by clipping the negative eigenvalues of a
    decomposition P diag(lam) P^T of A.  Returns (A_plus, A_minus), both PSD
    when the pair reconstructs A, as the callers' pairs do."""
    a_plus = (p * np.maximum(lam, 0.0)) @ p.T
    a_plus = (a_plus + a_plus.T) / 2.0
    return a_plus, a_plus - a


def in_L_bomze(a: np.ndarray, lam: np.ndarray, p: np.ndarray) -> MembershipVerdict:
    """Copositivity certificate via the eigenvalue-clip split.

    Finds a nonnegative x with A_plus x >= e as the row multipliers of the
    dual LP  max e.y  s.t.  A_plus y <= e, y >= 0, which is feasible at
    y = 0; when the per-coordinate curvature inequalities hold at x, A is
    certified copositive.  No S + N witness is claimed.  An unbounded dual
    means no such x exists, and the test cannot identify A.  (lam, p) is
    eigen_decompose(a), as membership_report hands it.
    """
    a_plus, a_minus = psd_split(a, lam, p)
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


def _dispatch(a: np.ndarray, cone: str, eig) -> MembershipVerdict:
    """One test of N, DD, H or L on a matrix that as_sym_matrix already
    returned, L's on eig = eigen_decompose(a); the LP families are
    _lp_families'."""
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
    return in_L_bomze(a, *eig)


def _cell_test(a: np.ndarray, family: str, inherited: np.ndarray | None):
    """A partition cell's test: N's or H's verdict, or in an LP family the
    capped _lp_families stages over the inherited basis, if any, then A's
    eigenbasis.  Returns (kind, basis): kind is the removal by the first
    stage that certifies A ("member_inherited", "member"), else "numerical"
    if a stage ended so, else None; basis, for a cell not removed whose last
    stage is optimal, is the eigenvectors of that stage's S, for bisect to
    hand down: a child's matrix is T^T A T, and the parent's witness maps
    to T^T S T, in the inherited G columns, plus T^T N T."""
    if family not in LP_FAMILIES:
        return ("member" if _dispatch(a, family, None).is_member else None), None
    bases = [p for p in (inherited, eigen_decompose(a)[1]) if p is not None]
    verdicts, r = _lp_families(a, bases, [family], True)
    kinds = ("member_inherited", "member")[-len(bases):]
    kind = next((kind for kind, v in zip(kinds, verdicts) if v.is_member), None)
    if kind is None and any(v.note == f"lp-{lpmod.NUMERICAL}" for v in verdicts):
        kind = lpmod.NUMERICAL
    return kind, None if r is None else eigen_decompose(r @ r.T)[1]


def membership_report(a: np.ndarray, cones=CONE_ORDER) -> list[MembershipVerdict]:
    """A's verdicts for the named cones, one per distinct name, in
    CONE_ORDER's order; [cone] asks for one.  Names outside CONE_ORDER are
    refused before any work, and A is decided at linalg.unit_scale's scale.

    The LP families and the L test share one eigendecomposition of A, made
    here; the LP families asked for are the stages of one simplex, G,
    F+, F+- (_lp_families), and G keeps its own LP's bits.  Every LP family
    poses the capped detection LP (build_lp), which stops once the floor
    reaches 0: the verdicts are the uncapped LP's, and a member's alpha_star
    is min(alpha*, max(alpha0, 0)) up to rounding, alpha0 being A's least
    entry; check_membership_lp(a, p, family) gives alpha* itself.  A stage
    at the cap decides the wider families: a G member there carries G's
    witness and alpha_star into F+ and F+-, as the subcones nest.  An LP
    that ends lp.NUMERICAL is NOT_IDENTIFIED with the note "lp-numerical".
    A test that raises an ArithmeticError or ValueError (numpy's LinAlgError
    is one) is recorded as NOT_IDENTIFIED with an "error:" note, for every
    cone of the shared simplex; other exceptions propagate.  Each verdict is
    mapped back to A exactly: alpha*, S and N times 2^-k.
    """
    if isinstance(cones, str):
        raise ValueError(f"cones must be a list of cone names, got {cones!r}")
    wanted = set(cones)  # read once: cones may be an iterator
    unknown = wanted - set(CONE_ORDER)
    if unknown:
        raise ValueError(f"unknown cones: {sorted(unknown)}")
    a, k = unit_scale(as_sym_matrix(a))
    order = [c for c in CONE_ORDER if c in wanted]
    families = [c for c in order if c in LP_FAMILIES]  # one step, one simplex
    steps = [families if [c] == families[:1] else [c] for c in order if c not in families[1:]]
    eig, verdicts = None, []  # (lam, P), made once
    for step in steps:
        try:
            if eig is None and step[0] in (*LP_FAMILIES, "L"):
                eig = eigen_decompose(a)
            found = (_lp_families(a, [eig[1]], step, True)[0] if step[0] in LP_FAMILIES
                     else [_dispatch(a, *step, eig)])
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
