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
Only A is stored, not the slack identity.  B^-1 is dense, kept as Binv - U
V^T: each pivot's rank-1 update is deferred into thin U, V and folded into
Binv by one matrix product every 20 pivots (every pivot below 64 rows), a
delayed Sherman-Morrison update (McDaniel et al., J. Chem. Phys. 2017).
Every 400 pivots Binv is formed afresh by inverting only the basis kernel,
the basic structural columns on the rows whose slack is nonbasic (Bisschop
& Meeraus, Math. Program. 1977); the basic slacks' rows of B^-1 follow from
it: the detection LPs at n = 16 end before it (the report's staged G, F+,
F+- solve, every stage counted, took at most 196 pivots on detect's
stream-0 catalogue), and at n = 30-50 400 was no slower than 100.  On the
small structured LPs of the cone membership tests (a few thousand rows at
most; not for sparse work) a pivot costs numpy calls more than arithmetic,
so solve() keeps them few: it works in its shape's recycled workspace (a
staged solve reuses it), binds its numpy functions, steps the stacked
reduced costs and weights by one subtraction, divides the whole ratio
column and masks it after, and tracks the objective by each pivot's gain
for the stall check.  Each call is cheap too: a ufunc converts a Python
float operand on every call (a compare of 393 entries took 1.2 us, 0.85 us
with a 0-d array), so every scalar operand is a 0-d float64 array, and
every view is bound once; pricing scores d clipped at the tolerance and
masks only when a clipped column wins.  Products go through ndarray.dot,
not the matmul gufunc, whose dispatch cost 0.3-0.9 us more a call at
m = 137 (FTRAN 3.3 against 2.8 us); the row product alone stays np.matmul,
since its out is not C-contiguous.

A solve hands its simplex back (_give) as its size class's workspace: its
arrays, views and rhs jitter pattern depend on the shape (m, n) alone, and
the next solve of that shape loads its LP into them (_take), 21 us for a
37-row cell LP against 60 us to build them (2-core host).  Two are kept: the
last of _DEFER_ROWS = 64 rows or more (at n = 16, B^-1 and the fold's
product are 150 KB each; allocated per solve they were faulted in again,
about 187 minor faults of a 6.7 ms report) and the last smaller one, each
two m x m arrays and nine of n + m entries.  The LP's own arrays, A and a
solution's x and duals, are never kept, since a caller can hold them
across later solves.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
NUMERICAL = "numerical"  # an optimal basis whose point violates a row

DEFAULT_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_STALL_LIMIT = 50  # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 400
_PIVOTS_PER_SIZE = 50  # the pivot budget is this times (rows + vars + 2)
_DEFER_ROWS = 64  # from this many rows updates are deferred

_spare: dict[bool, _Simplex] = {}  # the last workspace of each size class: m >= _DEFER_ROWS
_spare_lock = threading.Lock()


def _take(A, b, c) -> _Simplex:
    """The kept workspace of A's size class posed on this LP when it has A's
    shape, else a new simplex."""
    large = len(A) >= _DEFER_ROWS
    with _spare_lock:
        spx = _spare.get(large)
        spx = _spare.pop(large) if spx is not None and (spx.m, spx.n_struct) == A.shape else None
    return _Simplex(A, b, c) if spx is None else spx.load(A, b, c)


def _give(spx: _Simplex) -> None:
    """Keep a finished solve's workspace as its size class's (_DEFER_ROWS rows
    or more, or fewer), so a small solve neither reads nor evicts the large one."""
    spx.A = spx.b_true = None  # the LP's own arrays are never kept
    with _spare_lock:
        _spare[spx.m >= _DEFER_ROWS] = spx


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
        v = self.A.dot(y) - self.b
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
    stages: list[LpSolution] | None = None  # solve's stages (held), this one's last


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
        self.m, self.n_struct = m, n
        # the rhs jitter's pattern and the slack basis, fixed by the shape
        self.pattern = 1.0 + (np.arange(m, dtype=np.int64) * 2654435761 % 1024) / 1024.0
        self.slacks = n + np.arange(m)
        self.b, self.xB, self.c = np.empty(m), np.empty(m), np.empty(n + m)
        self.basis = np.empty_like(self.slacks)
        self.Binv, self.W = np.empty((m, m)), np.empty((m, m))  # W: the fold's product U^T V
        # pending rank-1 updates: 1 below _DEFER_ROWS, where the thin corrections
        # cost more numpy calls than the m x m update they defer, else 20
        self.U = U = np.empty((1 if m < _DEFER_ROWS else 20, m))
        self.V = V = np.empty_like(U)
        # the reduced costs d over the steepest-edge weights gamma_j =
        # 1 + |B^-1 w_j|^2, stacked so one subtraction updates both
        self.dg = np.empty((2, n + m))
        # the pivot loop's workspace, built once for every solve() call: alpha
        # and tau^T W (structural part, then slack part), the step dg takes,
        # the pivot-row correction's coefficients per pending count t, u, the
        # scores, ratios and masks, 0-d cells for the pivot's scalars, and the
        # constants as 0-d arrays (a ufunc converts a Python float operand on
        # every call, not a 0-d array); every view is bound here
        rows, step, coef = np.empty((2, n + m)), np.empty((2, n + m)), np.empty((2, len(U)))
        consts = [np.array(x) for x in (_PIVOT_TOL, -1.0, math.inf, 1.0, 0.0)]
        for x in (self.pattern, self.slacks, *consts):
            x.flags.writeable = False  # of the workspace, but never written
        self.work = (
            *rows, rows[:, n:], *rows[:, n:], rows[0, n:], rows[:, :n], step, step[1],
            np.empty((2, 1)), [(U[:t], V[:t], coef[:, :t]) for t in range(len(U) + 1)],
            np.empty(n + m), np.empty(n + m, dtype=bool), np.empty(m), np.empty(m),
            np.empty(m, dtype=bool), np.empty(()), np.empty(()), np.empty(()), *consts,
        )
        self.load(A, b, c)

    def load(self, A, b, c):
        """Pose the LP on A of this shape at the slack basis; every buffer is
        written before it is read, so nothing of an earlier LP is left."""
        # a deterministic jitter of 1e-9 to 2e-9 times max b on each rhs entry
        # breaks the pivot stalling that degenerate systems (many zero rhs
        # rows) cause; primal() reads the optimal basis on the true rhs
        self.A, self.b_true = A, b
        np.multiply(1e-9 * float(np.max(b, initial=0.0)), self.pattern, out=self.b)
        self.b += b
        self.xB[:] = self.b
        self.c[: self.n_struct], self.c[self.n_struct :] = c, 0.0
        self.basis[:] = self.slacks
        self.Binv.fill(0.0)
        np.fill_diagonal(self.Binv, 1.0)  # np.eye(m)'s bits
        self.t = 0  # updates held in U and V
        # gamma is exact at the slack basis and kept across solve() calls
        self.dg.fill(math.inf)  # a basic column's gamma is inf
        self.dg[1, : self.n_struct] = 1.0 + np.einsum("ij,ij->j", A, A)
        self.iterations = self.bland_pivots = self.refactorizations = self.pinv_fallbacks = 0
        return self

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
        block[~struct] = -a_s[slack_rows].dot(X)
        self.Binv.fill(0.0)
        self.Binv[:, tight] = block
        self.Binv[np.flatnonzero(~struct), slack_rows] = 1.0
        self.t = 0
        self.xB = self.Binv.dot(self.b)
        np.maximum(self.xB, 0.0, out=self.xB)
        self.refactorizations += 1

    def _fold(self):
        if self.t:  # np.dot: @ took 2x as long on the t = 1 outer product
            np.dot(self.U[: self.t].T, self.V[: self.t], out=self.W)
            self.Binv -= self.W
            self.t = 0

    def _reduced_costs(self):
        y = self.c[self.basis].dot(self.Binv)
        if self.t:
            y -= self.U[: self.t].dot(self.c[self.basis]).dot(self.V[: self.t])
        return self.c - np.concatenate([y.dot(self.A), y])

    def solve(self, max_iters):
        """Run the simplex to a status; at OPTIMAL xB is on the jittered rhs.
        The reduced costs d are updated along the pivot row and recomputed
        at every refactorization and once more before OPTIMAL."""
        m, n, A, basis, U, V = self.m, self.n_struct, self.A, self.basis, self.U, self.V
        d, gamma = dg = self.dg
        less_equal, multiply, putmask = np.less_equal, np.multiply, np.putmask
        matmul, divide, maximum = np.matmul, np.divide, np.maximum
        add, subtract = np.add, np.subtract
        (alpha, tau_w, slack, row, tau, alpha_slack, struct, step, s1, factors, pending,
         score, unpriced, u, ratios, mask, tie, piv, theta,
         tol, masked, inf, one, zero) = self.work
        stall, bland, obj = 0, _STALL_LIMIT <= 0, float(self.c[basis].dot(self.xB))
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
                    binv.dot(col, u)
                else:
                    u[:] = binv[:, k]
                if t:
                    u -= (Vt.dot(col) if k < 0 else Vt[:, k]).dot(Ut)
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
                u.dot(binv, tau)
                if t:
                    coef_t[0] = Ut[:, leave]
                    Ut.dot(u, coef_t[1])
                    slack -= coef_t.dot(Vt)
                # np.matmul: .dot writes only into a C-contiguous out, and two
                # .dot calls took 10.3 us against 6.5 us for this one product
                matmul(slack, A, out=struct)
                divide(alpha, piv, out=alpha)
                gamma_e, d_e = 1.0 + float(u.dot(u)), float(d[e])
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
        y[self.basis] = np.maximum(self.Binv.dot(self.b_true), 0.0)
        return y[: self.n_struct]

    def duals(self):
        return self.c[self.basis].dot(self.Binv)  # t = 0 at OPTIMAL


def solve(lp: LinearProgram, held=(), bound=math.inf) -> LpSolution:
    """Solve the LP within _PIVOTS_PER_SIZE * (rows + vars + 2) pivots;
    deterministic for a fixed input and a fixed OpenBLAS thread count.
    Raises ValueError when an entry of b is negative.  The ratio test reads
    a column entry at or below _PIVOT_TOL = 1e-10 as zero, an absolute
    tolerance, so an LP posed at a tiny scale can read unbounded:
    LinearProgram([1.0], [[1e-11]], [1e-11]) does.  The detection LPs are
    posed at unit scale (linalg.unit_scale) and never meet this.

    At an optimal basis the point is read on the true rhs; when it violates
    a row by more than DEFAULT_FEAS_TOL, B^-1 is formed afresh and the point
    read once more, and a point that still violates one gives the status
    NUMERICAL, with no x, objective or duals, instead of OPTIMAL.

    held, a sequence of column index sets, solves in stages: every held
    column starts at a cost of -inf (never priced in; the recurrence keeps
    its weights), and after each stage's optimum the same simplex restores
    the next set's costs and continues, with a fresh budget.  sol.stages
    lists the solution of each stage it solved, the last one sol's fields.
    A stage that is not optimal ends the solve, and so does one at bound,
    an upper bound on the objective that the LP implies (as build_lp's cap
    row): OPTIMAL within 1e-13 * max(1, |bound|) of it, on either side, its
    point is optimal for the later stages too, which only release columns."""
    budget = _PIVOTS_PER_SIZE * (lp.n_rows + lp.n_vars + 2)
    lp, infeasible = _to_standard_form(lp)
    if infeasible:
        raise ValueError("b has a negative entry, so y = 0 is infeasible")
    spx, stages = _take(lp.A, lp.b, lp.c), []
    held = [np.arange(lp.n_vars)[cols] for cols in held]  # IndexError outside
    for cols in held:
        spx.c[cols] = -math.inf
    for cols in [*held, None]:
        stages.append(sol := _result(lp, spx, spx.solve(spx.iterations + budget)))
        if (cols is None or sol.status != OPTIMAL
                or math.isclose(sol.objective_value, bound, rel_tol=1e-13, abs_tol=1e-13)):
            break
        spx.c[cols] = lp.c[cols]
    _give(spx)  # no solution refers to its buffers
    return replace(stages[-1], stages=stages)  # a copy, not a cycle left to the gc


def _result(lp: LinearProgram, spx: _Simplex, status: str) -> LpSolution:
    sol = LpSolution(status)
    if status == OPTIMAL:
        x = spx.primal()
        # refine once if rounding pushed the point slightly outside; a point
        # still outside after that is NUMERICAL, and carries no x
        if lp.constraint_violation(x) > DEFAULT_FEAS_TOL:
            spx._refactorize()
            x = spx.primal()
            if lp.constraint_violation(x) > DEFAULT_FEAS_TOL:
                sol.status = NUMERICAL
        if sol.status == OPTIMAL:
            sol.x, sol.objective_value, sol.dual = x, float(lp.c.dot(x)), spx.duals()
    for counter in ("iterations", "bland_pivots", "refactorizations", "pinv_fallbacks"):
        setattr(sol, counter, getattr(spx, counter))  # read after the refine
    return sol
