"""Self-contained dense LP solver (revised simplex from the slack basis).

Solves  maximize c^T y  subject to  A y <= b,  y >= 0  with b >= 0, the
form the simplex runs, with no translation: b >= 0 makes the slack basis at
y = 0 feasible, so there is no phase 1.  Pricing is exact steepest edge
(Forrest & Goldfarb, Math. Program. 1992): the entering column maximizes
d_j^2 / gamma_j, gamma_j = 1 + |B^-1 w_j|^2, the weights exact at the slack
basis and carried by their update recurrence; a basic column's weight is
inf, which keeps it out of pricing, and a held column's cost -inf (solve's
held).  xB keeps the rhs jitter at OPTIMAL, for a continuation (on the true
rhs it stalls), and primal() reads the true rhs; a continued optimum, as
the report's F+- alpha*, can differ from a cold solve's in the last bits.
Only A is stored, not the slack identity.  B^-1 is dense, kept as
Binv - U V^T: each pivot's rank-1 update is deferred into thin U, V and
folded into Binv by one matrix product every 20 pivots (every pivot below
64 rows), a delayed Sherman-Morrison update (McDaniel et al., J. Chem.
Phys. 2017).  Every 400 pivots Binv is formed afresh by inverting only the
basis kernel, the basic structural columns on the rows whose slack is
nonbasic (Bisschop & Meeraus, Math. Program. 1977); the basic slacks' rows
of B^-1 follow from it: the cold detection LPs at n = 16 end before it
(the report's held F+/F+- solve counts both stages, and refactorized once
in 16 of detect's 150 catalogue reports), and at n = 30-50 400 was no
slower than 100.  On the small structured LPs of the cone membership tests
(a few thousand rows at most; not for sparse work) a pivot costs numpy
calls more than arithmetic, so solve() keeps them few: it
works in buffers allocated once per call, binds its numpy functions, steps
the stacked reduced costs and weights by one subtraction, divides the whole
ratio column and masks it after, and tracks the objective by each pivot's
gain for the stall check.  Each call is cheap too: a ufunc converts a
Python float operand on every call (a compare of 393 entries took 1.2 us,
0.85 us with a 0-d array), so every scalar operand is a 0-d float64 array,
and every view is bound once per solve; pricing scores d clipped at the
tolerance and masks only when a clipped column wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

DEFAULT_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_STALL_LIMIT = 50  # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 400
_PIVOTS_PER_SIZE = 50  # the pivot budget is this times (rows + vars + 2)


class LinearProgram:
    """maximize c . y  subject to  A y <= b  and  y >= 0.

    A is m x n and b broadcasts from a scalar.  Malformed input raises at
    construction; solve() also raises when an entry of b is negative, since
    it starts at y = 0.
    """

    def __init__(self, c, A, b):
        c = np.asarray(c, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("objective must be a nonempty finite vector")
        a = np.ascontiguousarray(A, dtype=float)  # F order rounds differently
        if a.size == 0:
            a = a.reshape(0, c.size)
        if a.ndim != 2 or a.shape[1] != c.size:
            raise ValueError(f"constraint matrix must be m x {c.size}, got {a.shape}")
        # a contiguous copy: products with a stride-0 broadcast round differently
        b = np.broadcast_to(np.asarray(b, dtype=float), (a.shape[0],)).copy()
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("constraint coefficients and rhs must be finite")
        self.c, self.A, self.b = c, a, b

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def constraint_violation(self, y: np.ndarray) -> float:
        """Largest violation of the rows and of y >= 0 at y (0 when feasible)."""
        v = self.A @ y - self.b
        return float(max(0.0, v.max(initial=0.0), -np.min(y)))


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    dual: np.ndarray | None = None  # multiplier (>= 0) per row, when optimal
    iterations: int = 0  # pivots
    bland_pivots: int = 0  # pivots taken under Bland's anti-stalling rule
    refactorizations: int = 0  # times B^-1 was formed afresh
    pinv_fallbacks: int = 0  # refactorizations whose singular kernel took pinv
    first: LpSolution | None = None  # solve's first stage, the held columns at 0


def _to_standard_form(lp: LinearProgram):
    """(lp, flag), the flag set when some b_i < 0 makes the simplex's start
    y = 0 infeasible.  perfbench/layertrace.py wraps this name to count the
    rows of each solve, until ROADMAP item 2a moves that hook."""
    return lp, bool(np.any(lp.b < 0))


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
        # a deterministic jitter of 1e-9 to 2e-9 times max b on each rhs entry
        # breaks the pivot stalling that degenerate systems (many zero rhs
        # rows) cause; primal() reads the optimal basis on the true rhs
        self.b_true = b
        jitter = 1e-9 * float(np.max(b, initial=0.0)) * (
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
        # the reduced costs d over the steepest-edge weights gamma_j =
        # 1 + |B^-1 w_j|^2, stacked so one subtraction updates both; gamma
        # is exact at the slack basis and kept across solve() calls
        self.dg = np.full((2, n + m), math.inf)  # a basic column's gamma is inf
        self.dg[1, :n] = 1.0 + np.einsum("ij,ij->j", A, A)
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

    def _reduced_costs(self):
        y = self.c[self.basis] @ self.Binv
        if self.t:
            y -= (self.U[: self.t] @ self.c[self.basis]) @ self.V[: self.t]
        return self.c - np.concatenate([y @ self.A, y])

    def solve(self, max_iters):
        """Run the simplex to a status; at OPTIMAL xB is on the jittered rhs.
        The reduced costs d are updated along the pivot row and recomputed
        at every refactorization and once more before OPTIMAL."""
        m, n, A, basis, U, V = self.m, self.n_struct, self.A, self.basis, self.U, self.V
        d, gamma = dg = self.dg
        less_equal, multiply, putmask = np.less_equal, np.multiply, np.putmask
        matmul, divide, maximum = np.matmul, np.divide, np.maximum
        add, subtract = np.add, np.subtract
        # a ufunc converts a Python float operand on every call, not a 0-d array
        consts = (_PIVOT_TOL, -1.0, math.inf, 1.0, 0.0)
        tol, masked, inf, one, zero = map(np.array, consts)
        # per-solve workspace: alpha and tau^T W (structural part, then slack
        # part), the step dg takes, the pivot-row correction's coefficients,
        # u, the scores, ratios and masks, scratch once e and leave are set,
        # and 0-d cells for the pivot's scalars; every view is bound here
        rows, step = np.empty((2, n + m)), np.empty((2, n + m))
        (alpha, tau_w), slack, s1, struct = rows, rows[:, n:], step[1], rows[:, :n]
        (row, tau), alpha_slack = slack, alpha[n:]
        coef, factors = np.empty((2, len(U))), np.empty((2, 1))
        pending = [(U[:t], V[:t], coef[:, :t]) for t in range(len(U) + 1)]
        score, unpriced = np.empty(n + m), np.empty(n + m, dtype=bool)
        u, ratios, mask = np.empty(m), np.empty(m), np.empty(m, dtype=bool)
        tie, piv, theta = np.empty(()), np.empty(()), np.empty(())
        stall, bland, obj = 0, _STALL_LIMIT <= 0, float(self.c[basis] @ self.xB)
        d[:], fresh = self._reduced_costs(), True
        # the ratio test divides by every u_i and masks out u_i <= tol after
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while self.iterations < max_iters:
                # d clipped at tol scores d^2 / gamma where d > tol, so a
                # winner above tol with a positive score wins the masked scores
                maximum(d, tol, out=score)
                multiply(score, score, out=score)
                divide(score, gamma, out=score)
                e = int(score.argmax())
                if bland or d[e] <= _PIVOT_TOL or score[e] <= 0.0:
                    less_equal(d, tol, out=unpriced)
                    putmask(score, unpriced, masked)
                    e = int((score > 0.0).argmax() if bland else score.argmax())
                    if score[e] <= 0.0:
                        if fresh:  # xB stays on the jittered rhs, for a continuation
                            self._fold()
                            return OPTIMAL
                        d[:], fresh = self._reduced_costs(), True
                        continue
                if not m:  # no row bounds y_e
                    return UNBOUNDED
                # FTRAN u = B^-1 w_e; a slack's is a column of B^-1
                t, k, binv, xB = self.t, e - n, self.Binv, self.xB
                Ut, Vt, coef_t = pending[t]
                if k < 0:
                    col = A[:, e]
                    matmul(binv, col, out=u)
                else:
                    u[:] = binv[:, k]
                if t:
                    u -= (Vt @ col if k < 0 else Vt[:, k]) @ Ut
                divide(xB, u, out=ratios)
                less_equal(u, tol, out=mask)
                putmask(ratios, mask, inf)
                leave = int(ratios.argmin())
                theta[()] = theta_f = float(ratios[leave])
                if theta_f == math.inf:
                    return UNBOUNDED
                # of tied rows the largest u leaves, under Bland the lowest index
                tie[()] = theta_f + 1e-12
                less_equal(ratios, tie, out=mask)
                if np.count_nonzero(mask) > 1:
                    ties = mask.nonzero()[0]
                    leave = int(ties[np.argmin(basis[ties] if bland else -u[ties])])
                # pivot row alpha = e_leave^T B^-1 W over u[leave], and tau^T W
                # with tau = B^-T u, both on the old basis
                piv[()] = piv_f = float(u[leave])
                row[:] = binv[leave]
                matmul(u, binv, out=tau)
                if t:
                    coef_t[0] = Ut[:, leave]
                    matmul(Ut, u, out=coef_t[1])
                    slack -= coef_t @ Vt
                matmul(slack, A, out=struct)
                divide(alpha, piv, out=alpha)
                gamma_e, d_e = 1.0 + float(u @ u), float(d[e])
                # dg -= [alpha d_e; alpha (2 tau_w - gamma_e alpha)], then
                # gamma = max(gamma, 1 + alpha^2)
                factors[0, 0], factors[1, 0] = d_e, gamma_e
                multiply(alpha, factors, out=step)
                add(tau_w, tau_w, out=tau_w)  # 2 tau_w, exactly
                subtract(tau_w, s1, out=s1)
                s1 *= alpha
                dg -= step
                multiply(alpha, alpha, out=score)
                add(score, one, out=score)
                maximum(gamma, score, out=gamma)
                gamma[basis[leave]] = max(gamma_e / (piv_f * piv_f), 1.0)
                gamma[e] = math.inf
                fresh = False
                multiply(u, theta, out=ratios)
                xB -= ratios
                xB[leave] = theta_f
                maximum(xB, zero, out=xB)
                # B^-1 -= (u - e_leave) (e_leave^T B^-1 / piv), alpha's slack part
                U[t] = u
                U[t, leave] -= 1.0
                V[t] = alpha_slack
                self.t = t + 1
                basis[leave] = e
                self.iterations += 1
                self.bland_pivots += bland
                if self.iterations % _REFACTOR_EVERY == 0:
                    self._refactorize()
                    d[:], fresh = self._reduced_costs(), True
                elif self.t == len(U):
                    self._fold()
                # the pivot gains theta d_e on the jittered rhs
                gain = theta_f * d_e
                stall = stall + 1 if gain <= 1e-12 * max(1.0, abs(obj)) else 0
                bland, obj = stall >= _STALL_LIMIT, obj + gain
        return ITERATION_LIMIT

    def primal(self):
        """The basic solution on the true rhs, clipped at 0; t = 0 at OPTIMAL."""
        y = np.zeros(self.n_struct + self.m)
        y[self.basis] = np.maximum(self.Binv @ self.b_true, 0.0)
        return y[: self.n_struct]

    def duals(self):
        return self.c[self.basis] @ self.Binv  # t = 0 at OPTIMAL


def solve(lp: LinearProgram, held=None) -> LpSolution:
    """Solve the LP within _PIVOTS_PER_SIZE * (rows + vars + 2) pivots;
    deterministic for a fixed input and a fixed OpenBLAS thread count.
    Raises ValueError when an entry of b is negative.  The ratio test reads
    a column entry at or below _PIVOT_TOL = 1e-10 as zero, an absolute
    tolerance, so an LP posed at a tiny scale can read unbounded:
    LinearProgram([1.0], [[1e-11]], [1e-11]) does.  The detection LPs are
    posed at unit scale (linalg.unit_scale) and never meet this.

    held, indices of columns, first solves with those columns held at 0 by
    a cost of -inf (never priced in; the recurrence keeps their weights)
    and returns that optimum as sol.first.  The same simplex then restores
    their costs and continues, with a fresh budget, to the full optimum.
    A first stage that is not optimal ends the solve: sol copies it."""
    budget = _PIVOTS_PER_SIZE * (lp.n_rows + lp.n_vars + 2)
    lp, infeasible = _to_standard_form(lp)
    if infeasible:
        raise ValueError("b has a negative entry, so y = 0 is infeasible")
    spx, first = _Simplex(lp.A, lp.b, lp.c), None
    if held is not None:
        held = np.arange(lp.n_vars)[held]  # IndexError outside the columns
        spx.c[held] = -math.inf
        first = _result(lp, spx, spx.solve(budget))
        if first.status != OPTIMAL:
            return replace(first, first=first)
        spx.c[held] = lp.c[held]
    sol = _result(lp, spx, spx.solve(spx.iterations + budget))
    sol.first = first
    return sol


def _result(lp: LinearProgram, spx: _Simplex, status: str) -> LpSolution:
    sol = LpSolution(status)
    if status == OPTIMAL:
        sol.x = spx.primal()
        # refine once if rounding pushed the point slightly outside
        if lp.constraint_violation(sol.x) > DEFAULT_FEAS_TOL:
            spx._refactorize()
            sol.x = spx.primal()
        sol.objective_value = float(lp.c @ sol.x)
        sol.dual = spx.duals()
    for counter in ("iterations", "bland_pivots", "refactorizations", "pinv_fallbacks"):
        setattr(sol, counter, getattr(spx, counter))  # read after the refine
    return sol
