"""Self-contained dense LP solver (revised simplex from the slack basis).

Solves  maximize c^T x  subject to  A x >= rhs  and per-variable bounds; a
<= row is written negated and an == row as two rows.  The LP must be
feasible at its bound point: each variable at its finite lower bound, else
at its finite upper bound, else at 0.  Every LP conekit poses is, so the
simplex starts there and needs no phase 1.  Pricing is exact steepest edge
(Forrest & Goldfarb, Math. Program. 1992): the entering column maximizes
d_j^2 / gamma_j, gamma_j = 1 + |B^-1 w_j|^2, the weights exact at the slack
basis and carried by their update recurrence.  Only A is stored, not the
slack identity.  B^-1 is dense, kept as Binv - U V^T: each pivot's rank-1
update is deferred into thin U, V and folded into Binv by one matrix product
every 20 pivots (every pivot below 64 rows), a delayed Sherman-Morrison update
(McDaniel et al., J. Chem. Phys. 2017).  Every 100 pivots Binv is formed
afresh by inverting only the basis kernel, the basic structural columns on
the rows whose slack is nonbasic (Bisschop & Meeraus, Math. Program. 1977);
the basic slacks' rows of B^-1 follow from it.  Each solve() allocates its
pivot-row, pricing and ratio buffers once and updates the weights, reduced
costs and basic values in place: on the small structured LPs of the cone
membership tests (a few thousand rows at most; not for sparse work) a pivot
costs numpy calls more than arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

DEFAULT_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_STALL_LIMIT = 50  # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 100


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to  A x >= rhs  and  lo <= x <= hi.

    A is m x n, and rhs, lo and hi broadcast from scalars.  Write a <= row
    negated and an == row as two rows.  Bounds default to free and either
    side may be infinite.  Every row is solved as a row, so give a limit on a
    single variable as lo/hi rather than as a one-entry row.  Malformed input
    raises at construction; solve() also raises on an LP whose bound point
    violates a row.
    """

    objective: np.ndarray
    A: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, objective, A, rhs, lo=-math.inf, hi=math.inf):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective coefficients must be finite")
        nvar = c.size
        a = np.asarray(A, dtype=float)
        if a.size == 0:
            a = a.reshape(0, nvar)
        if a.ndim != 2 or a.shape[1] != nvar:
            raise ValueError(f"constraint matrix must be m x {nvar}, got {a.shape}")
        m = a.shape[0]
        b = np.broadcast_to(np.asarray(rhs, dtype=float), (m,))
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("constraint coefficients and rhs must be finite")
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (nvar,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (nvar,))
        bad = np.isnan(lo) | np.isnan(hi) | (lo > hi)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ValueError(f"variable {j}: invalid bounds ({lo[j]}, {hi[j]})")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def constraint_violation(self, x: np.ndarray) -> float:
        """Largest violation of rows and bounds at x (0 when feasible)."""
        v = self.rhs - self.A @ x
        bounds = max(np.max(self.lo - x), np.max(x - self.hi))
        return float(max(0.0, v.max(initial=0.0), bounds))


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    dual: np.ndarray | None = None  # multiplier (<= 0) per row, when optimal
    iterations: int = 0  # pivots
    bland_pivots: int = 0  # pivots taken under Bland's anti-stalling rule
    refactorizations: int = 0  # times B^-1 was formed afresh
    pinv_fallbacks: int = 0  # refactorizations whose singular kernel took pinv


@dataclass
class _StandardForm:
    """max c.y, A y <= b, y >= 0: the input's rows negated, then its caps."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    # x = offset, plus col_sgn[j] * y[j] added to x[col_var[j]] for each column j
    col_var: np.ndarray
    col_sgn: np.ndarray
    offset: np.ndarray


def _to_standard_form(lp: LinearProgram):
    """Normalize to  max c.y, A y <= b, y >= 0  with the bound point at y = 0.

    Rows are negated, and every row is kept; bounded variables are shifted
    or flipped, free ones split.  Returns (_StandardForm, infeasible_flag),
    the flag set when the bound point violates a row (an empty row with a
    positive rhs included) by more than DEFAULT_FEAS_TOL times the largest
    |A x| + |rhs| there.  A smaller violation is rounding and is clamped to
    0, so b >= 0.
    """
    nvar = lp.n_vars
    # variable transform: a variable with a finite lower bound is shifted
    # (x = lo + y), one with only an upper bound flipped (x = hi - y), and a
    # free one split into two columns, the negative one appended at the end
    lo, hi = lp.lo, lp.hi
    has_lo = np.isfinite(lo)
    has_hi = np.isfinite(hi)
    free = ~has_lo & ~has_hi
    offset = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    at_offset = lp.A @ offset
    slack = at_offset - lp.rhs  # row slack at the bound point
    scale = max(1.0, float(np.max(np.abs(at_offset) + np.abs(lp.rhs), initial=0.0)))
    if np.any(slack < -DEFAULT_FEAS_TOL * scale):
        return None, True

    col_var = np.concatenate([np.arange(nvar), np.flatnonzero(free)])
    col_sgn = np.concatenate([np.where(has_lo | free, 1.0, -1.0), -np.ones(free.sum())])
    # doubly bounded variables get their upper bound back as a row y <= hi - lo
    boxed = np.flatnonzero(has_lo & has_hi)
    cap_rows = np.zeros((boxed.size, col_var.size))
    cap_rows[np.arange(boxed.size), boxed] = 1.0

    A = np.vstack([-lp.A[:, col_var] * col_sgn, cap_rows])
    b = np.concatenate([np.maximum(slack, 0.0), hi[boxed] - lo[boxed]])
    sf = _StandardForm(
        A=A,
        b=b,
        c=lp.objective[col_var] * col_sgn,
        col_var=col_var,
        col_sgn=col_sgn,
        offset=offset,
    )
    return sf, False


class _Simplex:
    """Revised simplex over  max c.y, W y = b, y >= 0  with W = [A | I] and
    b >= 0, started from the slack basis.  Only A is stored, as r W = [r A, r]
    and a slack's column of B^-1 W is a column of B^-1; B^-1 = Binv - U[:t]^T
    V[:t], folded when U is full and before OPTIMAL."""

    def __init__(self, A, b, c):
        m, n = A.shape
        self.m = m
        self.n_struct = n
        self.A = A
        # a deterministic strictly positive jitter on the rhs breaks the
        # pivot stalling that degenerate systems (many zero rhs rows) cause;
        # the true rhs is restored once an optimal basis is found
        self.b_true = b
        scale = max(1.0, float(np.max(b, initial=0.0)))
        jitter = 1e-9 * scale * (
            1.0 + (np.arange(m, dtype=np.int64) * 2654435761 % 1024) / 1024.0
        )
        self.b = b + jitter
        self.c = np.concatenate([c, np.zeros(m)])
        self.basis = n + np.arange(m)
        self.Binv = np.eye(m)
        # pending rank-1 updates: 1 below 64 rows, where the thin corrections
        # cost more numpy calls than the m x m update they defer, else 20
        self.U = np.empty((1 if m < 64 else 20, m))
        self.V = np.empty_like(self.U)
        self.t = 0  # updates held in U and V
        self.xB = self.b.copy()
        # steepest-edge weights 1 + |B^-1 w_j|^2, exact at the slack basis
        self.gamma = np.append(1.0 + np.einsum("ij,ij->j", A, A), np.full(m, 2.0))
        self.iterations = self.bland_pivots = self.refactorizations = 0
        self.pinv_fallbacks = 0

    def _refactorize(self):
        # B is [[B11, 0], [B21, I]] up to permutation: the k basic structural
        # columns S on the k tight rows R1 (slack nonbasic) form the kernel
        # B11, and each basic slack is the unit vector of its row r in R2.
        # So B^-1 is X = B11^-1 on (S, R1), and -A[r, S] X on R1 plus 1 at r
        # for the slack of r; only the k x k kernel is inverted.
        struct = self.basis < self.n_struct
        cols, slack_rows = self.basis[struct], self.basis[~struct] - self.n_struct
        tight = np.ones(self.m, dtype=bool)
        tight[slack_rows] = False
        a_s = self.A[:, cols]
        try:
            X = np.linalg.inv(a_s[tight])
        except np.linalg.LinAlgError:
            X = np.linalg.pinv(a_s[tight])
            self.pinv_fallbacks += 1
        block = np.empty((self.m, cols.size))  # Binv[:, tight] in basis order
        block[struct] = X
        block[~struct] = -a_s[slack_rows] @ X
        self.Binv = np.zeros((self.m, self.m))
        self.Binv[:, tight] = block
        self.Binv[np.flatnonzero(~struct), slack_rows] = 1.0
        self.t = 0
        self.xB = self.Binv @ self.b
        np.maximum(self.xB, 0.0, out=self.xB)
        self.refactorizations += 1

    def _fold(self):
        if self.t:  # np.dot: @ took 2x as long on the t = 1 outer product
            self.Binv -= np.dot(self.U[: self.t].T, self.V[: self.t])
            self.t = 0

    def _ftran(self, e):
        """B^-1 w_e; a slack's is a column of B^-1."""
        t, k = self.t, e - self.n_struct
        u = self.Binv @ self.A[:, e] if k < 0 else self.Binv[:, k].copy()
        if t:
            u -= (self.V[:t] @ self.A[:, e] if k < 0 else self.V[:t, k]) @ self.U[:t]
        return u

    def _reduced_costs(self):
        y = self.c[self.basis] @ self.Binv
        if self.t:
            y -= (self.U[: self.t] @ self.c[self.basis]) @ self.V[: self.t]
        return self.c - np.concatenate([y @ self.A, y])

    def solve(self, max_iters):
        """Run the simplex to a status; at OPTIMAL, xB is on the true rhs.
        The reduced costs d are updated along the pivot row and recomputed
        at every refactorization and once more before OPTIMAL."""
        m, n, cost, gamma = self.m, self.n_struct, self.c, self.gamma
        # per-solve workspace: alpha and tau^T W (structural part, then slack
        # part), and the scores and ratios, scratch once e and leave are set
        rows = np.empty((2, n + m))
        (alpha, tau_w), slack = rows, rows[:, n:]
        score, priced = np.empty(n + m), np.empty(n + m, dtype=bool)
        ratios, pos = np.empty(m), np.empty(m, dtype=bool)
        cB = cost[self.basis]
        stall, bland, last_obj = 0, False, -math.inf
        d, fresh = self._reduced_costs(), True
        while True:
            if self.iterations >= max_iters:
                return ITERATION_LIMIT
            np.greater(d, _PIVOT_TOL, out=priced)
            np.multiply(d, d, out=score)
            score /= gamma
            score[~priced] = -1.0
            score[self.basis] = -1.0
            e = int((score > 0.0).argmax() if bland else score.argmax())
            if score[e] <= 0.0:
                if fresh:
                    break
                d, fresh = self._reduced_costs(), True
                continue
            u = self._ftran(e)
            np.greater(u, _PIVOT_TOL, out=pos)
            if not pos.any():
                return UNBOUNDED
            ratios.fill(math.inf)
            np.divide(self.xB, u, out=ratios, where=pos)
            theta = float(ratios.min())
            # of tied rows the largest u leaves, under Bland the lowest index
            ties = (ratios <= theta + 1e-12).nonzero()[0]
            leave = int(ties[0])
            if ties.size > 1:
                leave = int(ties[np.argmin(self.basis[ties] if bland else -u[ties])])
            # pivot row alpha = e_leave^T B^-1 W over u[leave], and tau^T W
            # with tau = B^-T u, both on the old basis
            piv, t = float(u[leave]), self.t
            slack[0] = self.Binv[leave]
            np.matmul(u, self.Binv, out=slack[1])
            if t:
                slack -= np.array([self.U[:t, leave], self.U[:t] @ u]) @ self.V[:t]
            np.matmul(slack, self.A, out=rows[:, :n])
            alpha /= piv
            gamma_e = 1.0 + float(u @ u)
            # gamma = max(gamma - alpha (2 tau_w - gamma_e alpha), 1 + alpha^2)
            np.multiply(alpha, gamma_e, out=score)
            tau_w *= 2.0
            tau_w -= score
            tau_w *= alpha
            gamma -= tau_w
            np.multiply(alpha, alpha, out=score)
            score += 1.0
            np.maximum(gamma, score, out=gamma)
            gamma[self.basis[leave]] = max(gamma_e / (piv * piv), 1.0)
            np.multiply(alpha, d[e], out=score)
            d -= score
            fresh = False
            np.multiply(u, theta, out=ratios)
            self.xB -= ratios
            self.xB[leave] = theta
            np.maximum(self.xB, 0.0, out=self.xB)
            # B^-1 -= (u - e_leave) (e_leave^T B^-1 / piv), alpha's slack part
            self.U[t] = u
            self.U[t, leave] -= 1.0
            self.V[t] = alpha[n:]
            self.t += 1
            self.basis[leave] = e
            cB[leave] = cost[e]
            self.iterations += 1
            self.bland_pivots += bland
            if self.iterations % _REFACTOR_EVERY == 0:
                self._refactorize()
                d, fresh = self._reduced_costs(), True
            elif self.t == len(self.U):
                self._fold()
            obj = float(cB @ self.xB)
            stalled = obj <= last_obj + 1e-12 * max(1.0, abs(last_obj))
            stall = stall + 1 if stalled else 0
            bland, last_obj = stall >= _STALL_LIMIT, obj
        # drop the jitter: evaluate the optimal basis on the true rhs
        self.b = self.b_true
        self._fold()
        self.xB = self.Binv @ self.b
        np.maximum(self.xB, 0.0, out=self.xB)
        return OPTIMAL

    def primal(self):
        y = np.zeros(self.n_struct + self.m)
        y[self.basis] = self.xB
        return y[: self.n_struct]

    def duals(self):
        return self.c[self.basis] @ self.Binv  # t = 0 at OPTIMAL


def _primal(sf: _StandardForm, y: np.ndarray) -> np.ndarray:
    """Map a standard-form point back to the original variables."""
    moves = np.bincount(sf.col_var, weights=sf.col_sgn * y, minlength=sf.offset.size)
    return sf.offset + moves


def solve(lp: LinearProgram, max_iters: int | None = None) -> LpSolution:
    """Solve the LP; deterministic for a fixed input.  Raises ValueError
    when the bound point violates a row."""
    if max_iters is None:
        max_iters = 50 * (lp.n_rows + lp.n_vars + 2)
    sf, infeasible = _to_standard_form(lp)
    if infeasible:
        raise ValueError("the LP's bound point violates a row; lp.solve "
                         "starts there and needs it feasible")

    spx = _Simplex(sf.A, sf.b, sf.c)
    sol = LpSolution(spx.solve(max_iters))
    if sol.status == OPTIMAL:
        sol.x = _primal(sf, spx.primal())
        # refine once if rounding pushed the point slightly outside
        if lp.constraint_violation(sol.x) > DEFAULT_FEAS_TOL:
            spx._refactorize()
            sol.x = _primal(sf, spx.primal())
        sol.objective_value = float(lp.objective @ sol.x)
        sol.dual = -spx.duals()[: lp.n_rows]
    sol.iterations = spx.iterations
    sol.bland_pivots = spx.bland_pivots
    sol.refactorizations = spx.refactorizations
    sol.pinv_fallbacks = spx.pinv_fallbacks
    return sol
