"""Self-contained dense LP solver (revised simplex from the slack basis).

Solves  maximize c^T x  subject to  A x >= rhs  and per-variable bounds; a
<= row is written negated and an == row as two rows.  The LP must be
feasible at its bound point: each variable at its finite lower bound, else
at its finite upper bound, else at 0.  Every LP conekit poses is, so the
simplex starts there and needs no phase 1.  Pricing is exact steepest edge
(Forrest & Goldfarb, Math. Program. 1992): the entering column maximizes
d_j^2 / gamma_j, gamma_j = 1 + |B^-1 w_j|^2, the weights exact at the slack
basis and carried by their update recurrence.  Sized for the small
structured LPs produced by the cone membership tests (a few thousand rows at
most), not for sparse work.
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


@dataclass
class _StandardForm:
    """max c.y, A y <= b, y >= 0, plus bookkeeping to map back to the input."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    # x = offset, plus col_sgn[j] * y[j] added to x[col_var[j]] for each column j
    col_var: np.ndarray
    col_sgn: np.ndarray
    offset: np.ndarray
    # standard-form row r < origin.size is original row origin[r] negated;
    # the caps of boxed variables come after
    origin: np.ndarray


def _to_standard_form(lp: LinearProgram):
    """Normalize to  max c.y, A y <= b, y >= 0  with the bound point at y = 0.

    Rows are negated and empty rows dropped; bounded variables are shifted
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

    origin = np.flatnonzero(lp.A.any(axis=1))
    col_var = np.concatenate([np.arange(nvar), np.flatnonzero(free)])
    col_sgn = np.concatenate([np.where(has_lo | free, 1.0, -1.0), -np.ones(free.sum())])
    # doubly bounded variables get their upper bound back as a row y <= hi - lo
    boxed = np.flatnonzero(has_lo & has_hi)
    cap_rows = np.zeros((boxed.size, col_var.size))
    cap_rows[np.arange(boxed.size), boxed] = 1.0

    A = np.vstack([-lp.A[origin][:, col_var] * col_sgn, cap_rows])
    b = np.concatenate([np.maximum(slack[origin], 0.0), hi[boxed] - lo[boxed]])
    sf = _StandardForm(
        A=A,
        b=b,
        c=lp.objective[col_var] * col_sgn,
        col_var=col_var,
        col_sgn=col_sgn,
        offset=offset,
        origin=origin,
    )
    return sf, False


class _Simplex:
    """Revised simplex over  max c.y, W y = b, y >= 0  with W = [A | I] and
    b >= 0, started from the slack basis."""

    def __init__(self, A, b, c):
        m, n = A.shape
        self.m = m
        self.n_struct = n
        self.W = np.hstack([A, np.eye(m)])
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
        self.xB = self.b.copy()
        # steepest-edge weights 1 + |B^-1 w_j|^2, exact at the slack basis
        self.gamma = 1.0 + np.einsum("ij,ij->j", self.W, self.W)
        self.iterations = self.bland_pivots = self.refactorizations = 0

    def _refactorize(self):
        B = self.W[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            self.Binv = np.linalg.pinv(B)
        self.xB = self.Binv @ self.b
        np.maximum(self.xB, 0.0, out=self.xB)
        self.refactorizations += 1

    def _reduced_costs(self):
        return self.c - (self.c[self.basis] @ self.Binv) @ self.W

    def solve(self, max_iters):
        """Run the simplex to a status; at OPTIMAL, xB is on the true rhs.
        The reduced costs d are updated along the pivot row and recomputed
        at every refactorization and once more before OPTIMAL."""
        m, cost = self.m, self.c
        stall = 0
        bland = False
        last_obj = -math.inf
        d, fresh = self._reduced_costs(), True
        while True:
            if self.iterations >= max_iters:
                return ITERATION_LIMIT
            score = np.where(d > _PIVOT_TOL, d * d / self.gamma, -1.0)
            score[self.basis] = -1.0
            e = int((score > 0.0).argmax() if bland else score.argmax())
            if score[e] <= 0.0:
                if fresh:
                    break
                d, fresh = self._reduced_costs(), True
                continue
            u = self.Binv @ self.W[:, e]
            pos = u > _PIVOT_TOL
            if not pos.any():
                return UNBOUNDED
            ratios = np.full(m, math.inf)
            ratios[pos] = self.xB[pos] / u[pos]
            theta = float(ratios.min())
            ties = (ratios <= theta + 1e-12).nonzero()[0]
            if bland:
                leave = int(ties[np.argmin(self.basis[ties])])
            else:
                leave = int(ties[u[ties].argmax()])
            # pivot row alpha = e_leave^T B^-1 W over u[leave], and tau^T W
            # with tau = B^-T u, both on the old basis
            piv = u[leave]
            alpha, tau_w = np.array([self.Binv[leave], u @ self.Binv]) @ self.W
            alpha /= piv
            gamma_e = 1.0 + u @ u
            self.gamma = np.maximum(
                self.gamma - alpha * (2.0 * tau_w - gamma_e * alpha),
                1.0 + alpha * alpha,
            )
            self.gamma[self.basis[leave]] = max(gamma_e / (piv * piv), 1.0)
            d = d - d[e] * alpha
            fresh = False
            self.xB = self.xB - theta * u
            self.xB[leave] = theta
            np.maximum(self.xB, 0.0, out=self.xB)
            row = self.Binv[leave] / piv
            self.Binv -= np.outer(u, row)
            self.Binv[leave] = row
            self.basis[leave] = e
            self.iterations += 1
            self.bland_pivots += bland
            if self.iterations % _REFACTOR_EVERY == 0:
                self._refactorize()
                d, fresh = self._reduced_costs(), True
            obj = float(cost[self.basis] @ self.xB)
            if obj <= last_obj + 1e-12 * max(1.0, abs(last_obj)):
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            last_obj = obj
        # drop the jitter: evaluate the optimal basis on the true rhs
        self.b = self.b_true
        self.xB = self.Binv @ self.b
        np.maximum(self.xB, 0.0, out=self.xB)
        return OPTIMAL

    def primal(self):
        y = np.zeros(self.W.shape[1])
        y[self.basis] = self.xB
        return y[: self.n_struct]

    def duals(self):
        return self.c[self.basis] @ self.Binv


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
        sol.dual = np.zeros(lp.n_rows)
        sol.dual[sf.origin] = -spx.duals()[: sf.origin.size]
    sol.iterations = spx.iterations
    sol.bland_pivots = spx.bland_pivots
    sol.refactorizations = spx.refactorizations
    return sol
