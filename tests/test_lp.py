import ast
import inspect
import math
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conekit import cones, lp
from conekit.instances import (
    complete_graph,
    gen_planted_qp,
    gen_random_spn,
    max_clique_matrix,
    qp_optimum,
)
from conekit.linalg import eigen_decompose, unit_scale


def _solve(c, rows):
    """Solve max c.y, a y <= b, y >= 0 over (a, b) rows."""
    a = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), len(c))
    return lp.solve(lp.LinearProgram(c, a, [r[1] for r in rows]))


def _capped(c, a, b, cap):
    """max c.y over rows a y <= b, then y_j <= cap (or cap[j]) for each j."""
    n = a.shape[1]
    return lp.LinearProgram(
        c, np.vstack([a, np.eye(n)]), np.concatenate([b, np.broadcast_to(cap, n)])
    )


def _detect_lp(a, family="Fpm"):
    """The detection LP of one family, posed on A's orthogonal pair."""
    return cones.build_lp(a, cones.sd_basis(eigen_decompose(a)[1], family))[0]


def test_single_variable_box():
    sol = _solve([1.0], [([1.0], 3.0)])
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_negative_b_raises():
    # y = 0, where the simplex starts, must be feasible; a zero row holds
    # there exactly when its b_i >= 0
    cases = (([[1.0]], [-1.0]), ([[-1.0], [1.0]], [-1e-300, 2.0]), ([[0.0]], [-1.0]))
    for a, b in cases:
        with pytest.raises(ValueError, match="negative"):
            lp.solve(lp.LinearProgram([1.0], a, b))
    # a zero row with b >= 0 holds everywhere, -0.0 too; its slack stays basic
    sol = lp.solve(lp.LinearProgram([1.0], [[0.0], [1.0], [0.0]], [1.0, 2.0, -0.0]))
    assert sol.status == lp.OPTIMAL and sol.x[0] == 2.0
    assert sol.dual[0] == sol.dual[2] == 0.0


def test_duplicated_row():
    # maximize alpha s.t. omega <= 2, alpha <= omega (twice)
    rows = [
        ([1.0, 0.0], 2.0),
        ([-1.0, 1.0], 0.0),
        ([-1.0, 1.0], 0.0),
    ]
    sol = _solve([0.0, 1.0], rows)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0)


def test_unbounded():
    sol = _solve([1.0], [])
    assert sol.status == lp.UNBOUNDED


def test_ratio_test_raises_no_numpy_warning():
    # the ratio test divides by every entry of u, zeros and negatives too,
    # and masks those out after; no warning may leave solve()
    detect = _detect_lp(gen_random_spn(16, 0)[0])
    # y_0 enters, and its column is <= 0 in every row: 0 twice, then -1
    ray = lp.LinearProgram([1.0, 0.0], [[0.0, 1.0], [0.0, 1.0], [-1.0, 1.0]], [0.0, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp.solve(detect).status == lp.OPTIMAL
        assert lp.solve(lp.LinearProgram([1.0], np.empty((0, 1)), [])).status == lp.UNBOUNDED
        sol = lp.solve(ray)
    assert sol.status == lp.UNBOUNDED and sol.iterations == 0


def test_iteration_limit_status(monkeypatch):
    # a budget of 0 pivots per row and variable stops an LP that needs some
    rng = np.random.default_rng(1)
    n, m = 8, 16
    prog = _capped(rng.normal(size=n), rng.normal(size=(m, n)), np.full(m, 0.5), 10.0)
    assert lp.solve(prog).iterations > 1
    monkeypatch.setattr(lp, "_PIVOTS_PER_SIZE", 0)
    sol = lp.solve(prog)
    assert sol.status == lp.ITERATION_LIMIT
    assert sol.iterations == 0 and sol.x is None


def _klee_minty(n):
    # max sum_j 2^(n-j) x_j  s.t.  2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i,
    # x >= 0 (1-based), with its optimum at (0, ..., 0, 5^n)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, :i] = 2.0 ** (i - np.arange(i) + 1)
        a[i, i] = 1.0
    return lp.LinearProgram(2.0 ** (n - 1 - np.arange(n)), a, 5.0 ** np.arange(1, n + 1))


def test_klee_minty_cube_takes_few_pivots():
    # Dantzig's rule visits all 2^n vertices, 255 pivots at n = 8, where
    # steepest edge heads for the optimum
    n = 8
    sol = lp.solve(_klee_minty(n))
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(5.0**n, rel=1e-12)
    assert sol.iterations <= n


def test_rhs_jitter_keeps_degenerate_detection_lps_off_blands_rule():
    # the clique detection LPs start from a highly degenerate vertex; without
    # the simplex's rhs jitter they took 243 to 19750 pivots, up to 19155 of
    # them under Bland's rule, where with it they take 62 to 234
    for n in (12, 16):
        for gamma in (n - 0.5, n + 0.5):
            a = max_clique_matrix(complete_graph(n), gamma)
            for family in ("Fplus", "Fpm"):
                sol = lp.solve(_detect_lp(a, family))
                assert sol.status == lp.OPTIMAL
                assert sol.bland_pivots == 0
                assert sol.iterations <= 500, (n, gamma, family, sol.iterations)


def _beale():
    # Beale's example (1955), on which Dantzig's rule with a lowest-index
    # tie-break cycles; the optimum -1/20 of its min form is at x = (1/25, 0, 1, 0)
    a = [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]
    return lp.LinearProgram([0.75, -150.0, 0.02, -6.0], a, [0.0, 0.0, 1.0])


def test_beale_cycling_lp():
    sol = lp.solve(_beale())
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.05, rel=1e-12)
    assert np.allclose(sol.x, [0.04, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-12)


def test_blands_rule_reaches_the_optimum(monkeypatch):
    # no LP elsewhere in the tests stalls long enough for Bland's rule; with
    # no stall allowed, every pivot is a Bland pivot (lowest entering index,
    # lowest basic index among tied rows), and it must reach the optimum
    # that steepest edge reaches
    detect = _detect_lp(gen_random_spn(16, 0)[0])
    assert detect.n_rows == 136
    for prog in (_beale(), _klee_minty(8), detect):
        normal = lp.solve(prog)
        monkeypatch.setattr(lp, "_STALL_LIMIT", 0)
        sol = lp.solve(prog)
        monkeypatch.undo()
        assert normal.status == sol.status == lp.OPTIMAL
        assert normal.bland_pivots == 0 < sol.bland_pivots
        assert sol.objective_value == pytest.approx(normal.objective_value, rel=1e-9)
        assert prog.constraint_violation(sol.x) <= lp.DEFAULT_FEAS_TOL


def test_malformed_rejected_at_construction():
    with pytest.raises(ValueError):
        lp.LinearProgram([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram([np.inf], [], [])
    with pytest.raises(ValueError):
        lp.LinearProgram([1.0], [[1.0]], [np.nan])
    with pytest.raises(ValueError):
        lp.LinearProgram([1.0], [[1.0], [2.0]], [1.0, 1.0, 1.0])


def test_objective_matches_solution_vector():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = rng.normal(size=n)
        a = rng.normal(size=(n + 2, n))
        prog = _capped(c, a, rng.uniform(0.1, 1.0, size=n + 2), 10.0)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        scale = max(1.0, abs(sol.objective_value))
        assert abs(sol.objective_value - float(c @ sol.x)) <= 1e-9 * scale


def test_known_feasible_lps_stay_feasible():
    # 1000 random LPs whose rows all hold strictly at y = 0, where the
    # solver starts, each variable capped at 4
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 2 * n + 1))
        a = rng.normal(size=(m, n))
        prog = _capped(rng.normal(size=n), a, rng.uniform(0.05, 1.0, size=m), 4.0)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        assert prog.constraint_violation(sol.x) <= 1e-8


def _check_duality(prog, sol, tol):
    """Dual feasibility (y >= 0, c - A^T y <= 0), equal objectives and
    complementary slackness in the variables, within tol."""
    assert np.all(sol.dual >= 0.0)
    reduced = prog.c - sol.dual @ prog.A
    assert np.max(reduced) <= tol
    assert abs(float(sol.x @ reduced)) <= tol * max(1.0, abs(sol.objective_value))
    by = float(sol.dual @ prog.b)
    assert abs(by - sol.objective_value) <= tol * max(1.0, abs(sol.objective_value))


def test_weak_duality_and_stationarity():
    # deliberate singleton rows and zero-rhs rows, all holding at y = 0;
    # each variable is capped within 9 of 0
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 2 * n + 3))
        a = rng.normal(size=(m, n))
        for r in np.flatnonzero(rng.uniform(size=m) < 0.3):
            a[r] = 0.0
            a[r, rng.integers(0, n)] = rng.normal() or 1.0
        b = rng.uniform(0.0, 2.0, size=m) * (rng.uniform(size=m) < 0.8)
        prog = _capped(rng.normal(size=n), a, b, rng.uniform(1.0, 9.0, size=n))
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        _check_duality(prog, sol, 1e-7)


def test_singleton_rows_get_valid_duals():
    # x <= 1 twice around x <= 3; y <= 1 twice around -y <= 2
    prog = lp.LinearProgram(
        [1.0, 1.0],
        [[1, 0], [1, 0], [1, 0], [0, -1], [0, 1], [0, 1], [1, 1]],
        [1, 3, 1, 2, 1, 1, 5],
    )
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert np.array_equal(sol.x, [1.0, 1.0])
    _check_duality(prog, sol, 1e-12)
    # rows 1, 3 and 6 are slack at x
    assert np.all(sol.dual[[1, 3, 6]] == 0.0)


def test_dual_certifies_the_136_row_detection_lp(monkeypatch):
    # the F+- LP of a detect-size matrix, solved through two refactorizations
    # and folds of deferred updates
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 100)  # below its 202 pivots
    prog = _detect_lp(gen_random_spn(16, 0)[0])
    assert prog.n_rows == 136
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL and sol.refactorizations >= 2
    assert np.all(sol.dual >= 0.0)
    assert np.max(prog.c - sol.dual @ prog.A) <= 1e-9
    cx = sol.objective_value
    assert abs(float(prog.b @ sol.dual) - cx) <= 1e-9 * max(1.0, abs(cx))


def test_refine_once_keeps_an_optimal_point(monkeypatch):
    # a first check that reads the point as infeasible takes the refine
    # branch: one more refactorization, x moves by rounding only, and the
    # second check passes, so the solve stays OPTIMAL
    prog = _detect_lp(gen_random_spn(16, 0)[0])
    plain = lp.solve(prog)
    checks, violation = [], lp.LinearProgram.constraint_violation

    def first_fails(lp_, y):
        checks.append(violation(lp_, y))
        return math.inf if len(checks) == 1 else checks[-1]

    monkeypatch.setattr(lp.LinearProgram, "constraint_violation", first_fails)
    refined = lp.solve(prog)
    assert len(checks) == 2
    assert plain.status == refined.status == lp.OPTIMAL
    assert refined.iterations == plain.iterations
    assert refined.refactorizations == plain.refactorizations + 1
    assert np.max(np.abs(refined.x - plain.x)) <= 1e-10
    assert np.all(refined.x >= 0.0)
    assert prog.constraint_violation(refined.x) <= 1e-8


def test_a_point_that_fails_both_checks_is_numerical(monkeypatch):
    # with every check failing, the refined point is still outside: the
    # status is NUMERICAL, with no point, objective or duals
    prog = _detect_lp(gen_random_spn(16, 0)[0])
    plain = lp.solve(prog)
    monkeypatch.setattr(lp, "DEFAULT_FEAS_TOL", -1.0)
    sol = lp.solve(prog)
    assert sol.status == lp.NUMERICAL
    assert sol.x is None and sol.objective_value is None and sol.dual is None
    assert sol.iterations == plain.iterations
    assert sol.refactorizations == plain.refactorizations + 1


def test_determinism():
    rng = np.random.default_rng(9)
    n = 5
    c = rng.normal(size=n)
    prog = _capped(c, rng.normal(size=(8, n)), np.ones(8), 2.0)
    s1 = lp.solve(prog)
    s2 = lp.solve(prog)
    assert s1.status == s2.status == lp.OPTIMAL
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


def test_repeated_136_row_solves_are_identical_and_leave_the_lp_alone(monkeypatch):
    # the F+- LP of a detect-size matrix runs folds of up to 20 pending
    # updates and two refactorizations in the per-solve workspace
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 100)  # below its 202 pivots
    prog = _detect_lp(gen_random_spn(16, 0)[0])
    assert prog.n_rows == 136
    before = {k: getattr(prog, k).tobytes() for k in ("c", "A", "b")}
    s1, s2 = lp.solve(prog), lp.solve(prog)
    assert s1.status == s2.status == lp.OPTIMAL
    assert s1.refactorizations == s2.refactorizations >= 2
    assert s1.iterations == s2.iterations
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.dual.tobytes() == s2.dual.tobytes()
    assert {k: getattr(prog, k).tobytes() for k in before} == before


def test_ratio_tie_goes_to_the_row_with_the_larger_pivot():
    # rows 0 and 1 have rhs 0 and jitters 1e-9 and 1.4228515625e-9, so with
    # those coefficients both ratios are 1e-9: the larger entry, row 1, leaves
    a = np.array([[1.0], [1.4228515625], [1.0]])
    spx = lp._Simplex(a, np.array([0.0, 0.0, 1.0]), np.array([1.0]))
    assert np.isclose(spx.b[0] / a[0, 0], spx.b[1] / a[1, 0], rtol=0, atol=1e-12)
    assert spx.solve(1) == lp.ITERATION_LIMIT
    assert spx.basis.tolist() == [1, 0, 3]


def _random_mixed_lp(rng):
    """A random LP  max c.y, A y <= b, y >= 0  that mixes dense rows and
    singleton rows of either sign, tied rows (a row again, or scaled) and
    zero-rhs rows, which hold tightly at y = 0.  Some directions are capped
    by no row, so some of these LPs are unbounded."""
    n = int(rng.integers(2, 7))
    rows, rhs = [], []
    for _ in range(int(rng.integers(n, 2 * n + 3))):
        u = rng.uniform()
        if u < 0.25:
            a = np.zeros(n)
            a[rng.integers(0, n)] = rng.normal() or 1.0
        else:
            a = rng.normal(size=n)
        b = 0.0 if u > 0.85 else rng.uniform(0.0, 2.0)
        rows.append(a)
        rhs.append(b)
        if rng.uniform() < 0.15:
            scale = float(rng.choice([1.0, 2.0]))
            rows.append(scale * a)
            rhs.append(scale * b)
    return lp.LinearProgram(rng.normal(size=n), rows, rhs)


def test_matches_highs_on_random_mixed_lps():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2718)
    statuses = {0: lp.OPTIMAL, 3: lp.UNBOUNDED}
    seen = set()
    for _ in range(300):
        prog = _random_mixed_lp(rng)
        ref = optimize.linprog(
            -prog.c,
            A_ub=prog.A,
            b_ub=prog.b,
            bounds=(0, None),
            method="highs",
            # HiGHS's presolve calls some unbounded LPs infeasible
            options={"presolve": False},
        )
        sol = lp.solve(prog)
        assert sol.status == statuses[ref.status]
        seen.add(sol.status)
        if sol.status == lp.OPTIMAL:
            ref_value = -ref.fun
            tol = 1e-7 * max(1.0, abs(ref_value))
            assert abs(sol.objective_value - ref_value) <= tol
            assert prog.constraint_violation(sol.x) <= 1e-7
    assert seen == {lp.OPTIMAL, lp.UNBOUNDED}


def test_deferred_updates_keep_an_inverse_across_folds(monkeypatch):
    # B^-1 = Binv - U[:t]^T V[:t]; at 136 rows up to 20 updates wait to be
    # folded, and the 202 pivots pass two refactorizations
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 100)  # below its 202 pivots
    a = gen_random_spn(16, 0)[0]
    prog = _detect_lp(a)
    spx = lp._Simplex(prog.A, prog.b, prog.c)
    w = np.hstack([prog.A, np.eye(spx.m)])
    held = set()
    while spx.solve(spx.iterations + 1) == lp.ITERATION_LIMIT:
        held.add(spx.t)
        binv = spx.Binv - spx.U[: spx.t].T @ spx.V[: spx.t]
        assert np.max(np.abs(binv @ w[:, spx.basis] - np.eye(spx.m))) <= 1e-9
    assert held == set(range(20))
    assert spx.refactorizations >= 2
    # below 64 rows every pivot folds at once
    small = _detect_lp(a[:8, :8])
    spx = lp._Simplex(small.A, small.b, small.c)
    while spx.solve(spx.iterations + 1) == lp.ITERATION_LIMIT:
        assert spx.t == 0
    assert spx.iterations > 1


def _fpm_simplex(n):
    prog = _detect_lp(gen_random_spn(n, 0)[0])
    return lp._Simplex(prog.A, prog.b, prog.c)


def test_refactorization_inverts_only_the_kernel(monkeypatch):
    # B^-1 is assembled from the inverse of the k x k block of the basic
    # structural columns on the tight rows, k < m once a slack is basic
    shapes, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda x: shapes.append(x.shape) or inv(x))
    refactorize = lp._Simplex._refactorize

    def checked(spx):
        refactorize(spx)
        k = int(np.sum(spx.basis < spx.n_struct))
        assert shapes[-1] == (k, k) and k < spx.m
        b = np.hstack([spx.A, np.eye(spx.m)])[:, spx.basis]
        assert np.max(np.abs(spx.Binv @ b - np.eye(spx.m))) <= 1e-9

    monkeypatch.setattr(lp._Simplex, "_refactorize", checked)
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 100)  # below its 202 pivots
    spx = _fpm_simplex(16)
    assert spx.solve(10_000) == lp.OPTIMAL
    assert spx.refactorizations >= 2 and len(shapes) == spx.refactorizations
    assert spx.pinv_fallbacks == 0


def test_refactorization_of_the_slack_and_the_all_structural_basis():
    # k = 0: no kernel, and B^-1 is the identity exactly
    spx = _fpm_simplex(6)
    spx._refactorize()
    assert np.array_equal(spx.Binv, np.eye(spx.m))
    # k = m: y1 + 2 y2 <= 4, 2 y1 + y2 <= 4 is tight in both rows at the optimum
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    spx = lp._Simplex(a, np.array([4.0, 4.0]), np.array([1.0, 1.0]))
    assert spx.solve(10) == lp.OPTIMAL
    assert sorted(spx.basis) == [0, 1]
    spx._refactorize()
    assert np.allclose(spx.Binv @ a[:, spx.basis], np.eye(2), rtol=0, atol=1e-15)
    assert np.allclose(spx.primal(), [4 / 3, 4 / 3], rtol=0, atol=1e-12)


def test_singular_kernel_falls_back_to_pinv_and_is_counted():
    # columns 0 and 1 are equal, so the kernel on tight rows 0 and 1 is
    # singular; row 2's slack stays basic and its row of B^-1 stays exact
    a = np.array([[1.0, 1.0, 0.5], [2.0, 2.0, 0.0], [3.0, 3.0, 1.0]])
    spx = lp._Simplex(a, np.ones(3), np.ones(3))
    spx.basis = np.array([0, 1, 3 + 2])
    spx._refactorize()
    assert spx.pinv_fallbacks == 1
    x = np.linalg.pinv(a[:2, :2])
    assert np.allclose(spx.Binv[:2, :2], x, rtol=0, atol=1e-15)
    assert np.array_equal(spx.Binv[:2, 2], [0.0, 0.0])
    assert spx.Binv[2, 2] == 1.0
    assert np.allclose(spx.Binv[2, :2], -a[2, :2] @ x, rtol=0, atol=1e-15)


def test_solution_reports_pinv_fallbacks(monkeypatch):
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 100)  # below its 202 pivots
    a = gen_random_spn(16, 0)[0]
    prog = _detect_lp(a)
    clean = lp.solve(prog)
    assert clean.pinv_fallbacks == 0 and clean.refactorizations >= 2

    def singular(x):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.pinv_fallbacks == sol.refactorizations >= 2
    assert abs(sol.objective_value - clean.objective_value) <= 1e-9


def test_detect_size_lps_end_before_a_refactorization(monkeypatch):
    # the G, F+ and F+- LPs at n = 16 (136 rows) finish within the interval,
    # and refactorizing every 100 pivots takes the same pivots to the same optimum
    for seed in range(10):
        a = gen_random_spn(16, seed)[0]
        for family in cones.LP_FAMILIES:
            prog = _detect_lp(a, family)
            sol = lp.solve(prog)
            assert sol.status == lp.OPTIMAL and sol.refactorizations == 0
            with monkeypatch.context() as patched:
                patched.setattr(lp, "_REFACTOR_EVERY", 100)
                often = lp.solve(prog)
            assert often.iterations == sol.iterations, (seed, family)
            obj = sol.objective_value
            assert abs(often.objective_value - obj) <= 1e-12 * max(1.0, abs(obj))


def test_basic_columns_weigh_inf(monkeypatch):
    # a basic column's steepest-edge weight is inf, so pricing scores it 0;
    # a nonbasic one's is finite and at least 1, after pivots and refactorizations
    def check(spx):
        basic = np.zeros(spx.n_struct + spx.m, dtype=bool)
        basic[spx.basis] = True
        assert np.all(spx.dg[1, basic] == np.inf)
        assert np.all(np.isfinite(spx.dg[1, ~basic]) & (spx.dg[1, ~basic] >= 1.0))

    spx = _fpm_simplex(16)
    check(spx)
    assert spx.solve(10_000) == lp.OPTIMAL
    check(spx)
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 7)
    spx = _fpm_simplex(16)
    while spx.solve(spx.iterations + 1) == lp.ITERATION_LIMIT:
        check(spx)
    check(spx)
    assert spx.refactorizations >= 20


def test_a_reduced_cost_at_or_below_the_pivot_tol_never_enters():
    # pricing clips d at _PIVOT_TOL: column 0 (d = 5e-11) scores 1e-20 and
    # beats column 1's 1e-18 / 10001, so the masked pick must take column 1
    sol = lp.solve(lp.LinearProgram([5e-11, 1e-9], [[1e-6, 100.0]], [1.0]))
    assert sol.status == lp.OPTIMAL and sol.iterations == 1
    assert sol.x[0] == 0.0 and sol.x[1] == pytest.approx(0.01, rel=1e-14)
    # a lone column below the tol wins the clipped scores and is refused
    sol = lp.solve(lp.LinearProgram([5e-11], [[1.0]], [1.0]))
    assert sol.status == lp.OPTIMAL and sol.iterations == 0
    assert sol.x.tolist() == [0.0]


def _is_last_stage_of(sol):
    """sol has its last stage's fields, and that stage no stages of its own:
    solve returns a copy of it, not a cycle left to the garbage collector."""
    last = sol.stages[-1]
    fields = (k for k in vars(last) if k != "stages")
    return last.stages is None and all(getattr(sol, k) is getattr(last, k) for k in fields)


def test_held_columns_give_the_lp_without_them_first():
    # G's basis is F+'s first n columns and F+'s the first n(n+1)/2 of
    # F+-'s; holding the other columns of the larger LP solves the smallest
    # one bit for bit, and the same simplex releases one set per stage and
    # continues to each larger optimum
    off, minus = np.arange(16, 136), np.arange(136, 16 * 16)
    for seed in range(4):
        a = gen_random_spn(16, seed)[0]
        for family, held in (("Fplus", [off]), ("Fpm", [minus]), ("Fpm", [off, minus])):
            prog = _detect_lp(a, family)
            sol = lp.solve(prog, held=held)
            assert len(sol.stages) == len(held) + 1 and _is_last_stage_of(sol)
            for k, stage in enumerate(sol.stages):
                out = np.concatenate([np.empty(0, dtype=int), *held[k:]])
                keep = np.flatnonzero(~np.isin(np.arange(prog.n_vars), out))
                small = lp.LinearProgram(prog.c[keep], prog.A[:, keep], prog.b)
                cold = lp.solve(small)
                assert stage.status == cold.status == lp.OPTIMAL, (seed, family, k)
                assert len(cold.stages) == 1 and _is_last_stage_of(cold)
                assert not np.any(stage.x[out])
                if k == 0:
                    assert stage.iterations == cold.iterations
                    assert stage.objective_value == cold.objective_value
                    assert np.array_equal(stage.x[keep], cold.x)
                    assert np.array_equal(stage.dual, cold.dual)
                    continue
                assert stage.iterations >= sol.stages[k - 1].iterations
                obj = cold.objective_value
                tol = 1e-12 * max(1.0, abs(obj))
                assert abs(stage.objective_value - obj) <= tol, (seed, family, k)
                assert prog.constraint_violation(stage.x) <= lp.DEFAULT_FEAS_TOL


def test_an_f_ordered_constraint_matrix_solves_to_its_c_copy_bits():
    # prog.A[:, cols] comes back in F order, whose products round differently;
    # LinearProgram stores A in C order, so the F+ LPs cut from F+-'s solve
    # to the bits of their C copies
    for seed in range(8):
        prog = _detect_lp(gen_random_spn(16, seed)[0])
        cols = np.setdiff1d(np.arange(prog.n_vars), np.arange(136, 256))
        f_ordered = prog.A[:, cols]
        assert f_ordered.flags.f_contiguous and not f_ordered.flags.c_contiguous
        small = lp.LinearProgram(prog.c[cols], f_ordered, prog.b)
        assert small.A.flags.c_contiguous
        sol = lp.solve(small)
        ref = lp.solve(lp.LinearProgram(prog.c[cols], np.ascontiguousarray(f_ordered),
                                        prog.b))
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
        assert sol.objective_value == ref.objective_value
        assert np.array_equal(sol.x, ref.x) and np.array_equal(sol.dual, ref.dual)


def test_a_first_stage_that_is_not_optimal_ends_the_solve(monkeypatch):
    # max y0 + y1 with y0 unbounded: holding y1, the first stage is unbounded
    prog = lp.LinearProgram([1.0, 1.0], [[-1.0, 1.0]], [1.0])
    sol = lp.solve(prog, held=[[1]])
    assert sol.status == lp.UNBOUNDED and len(sol.stages) == 1 and _is_last_stage_of(sol)
    # y0 <= 1, y1 <= 1 and y2 unbounded: a later stage ends the solve too,
    # before the sets after it are released
    prog = lp.LinearProgram([1.0, 1.0, 1.0], np.diag([1.0, 1.0, -1.0]), [1.0, 1.0, 1.0])
    sol = lp.solve(prog, held=[[2], [1]])
    assert [s.status for s in sol.stages] == [lp.OPTIMAL, lp.UNBOUNDED]
    assert sol.stages[0].objective_value == 1.0 and _is_last_stage_of(sol)
    sol = lp.solve(prog, held=[[1], [2]])
    assert [s.status for s in sol.stages] == [lp.OPTIMAL, lp.OPTIMAL, lp.UNBOUNDED]
    assert [s.objective_value for s in sol.stages[:2]] == [1.0, 2.0]
    monkeypatch.setattr(lp, "_PIVOTS_PER_SIZE", 0)
    sol = lp.solve(prog, held=[[0], [1]])
    assert sol.status == lp.ITERATION_LIMIT and len(sol.stages) == 1
    # held indexes the columns as numpy does: past the end is refused
    with pytest.raises(IndexError):
        lp.solve(prog, held=[[3]])


def test_a_stage_at_the_bound_ends_the_solve():
    # max y0 + y1 under y0 <= 1, y1 <= 1 and the bound row y0 + y1 <= 1,
    # y1 held: the first stage's optimum 1 is the bound, so it is optimal
    # for the LP with y1 too, and the solve ends there, with no further
    # pivot and no later stage listed; within 1e-13 on either side is the
    # bound
    prog = lp.LinearProgram([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])
    free = lp.solve(prog, held=[[1]])
    assert [s.iterations for s in free.stages] == [1, 2]  # y1 enters on the jitter
    for bound in (1.0, 1.0 - 5e-14, 1.0 + 5e-14):
        sol = lp.solve(prog, held=[[1]], bound=bound)
        assert len(sol.stages) == 1 and _is_last_stage_of(sol)
        assert pickle.dumps(sol.stages[0]) == pickle.dumps(free.stages[0])
        assert sol.iterations == 1 and sol.x.tolist() == [1.0, 0.0]
        # its duals certify the first stage only: y1's cost is uncovered
        assert (prog.A.T.dot(sol.dual) < prog.c).tolist() == [False, True]
    # an optimum off the bound by more than rounding, above or below, continues
    for bound in (1.0 - 1e-11, 1.0 + 1e-11, math.inf):
        assert pickle.dumps(lp.solve(prog, held=[[1]], bound=bound)) == pickle.dumps(free)


def test_a_bound_moves_no_bit_until_a_stage_reaches_it():
    # the report's capped staged LP with the cap as the bound, or inf, or
    # above every optimum, or below one by more than rounding: every bit of
    # the solve without a bound; seed 1's G stage is at the cap and ends it
    held = [slice(16, 136), slice(136, 256)]  # F+'s sums, then F+-'s differences
    for seed in range(4):
        u = unit_scale(gen_random_spn(16, np.random.SeedSequence([0, seed]))[0])[0]
        prog = cones.build_lp(u, cones.sd_basis(eigen_decompose(u)[1], "Fpm"), capped=True)[0]
        free = lp.solve(prog, held=held)
        g, cap = free.stages[0], prog.b[-1]
        at_cap = abs(g.objective_value - cap) <= 1e-13 * max(1.0, cap)
        assert at_cap == (seed == 1), seed
        for bound in (math.inf, 2 * cap + 1, g.objective_value - 1e-11):
            assert pickle.dumps(lp.solve(prog, held=held, bound=bound)) == pickle.dumps(free)
        sol = lp.solve(prog, held=held, bound=cap)
        if at_cap:
            assert free.iterations > g.iterations == sol.iterations
            assert len(sol.stages) == 1 and _is_last_stage_of(sol)
            assert pickle.dumps(sol.stages[0]) == pickle.dumps(g)
        else:
            assert pickle.dumps(sol.stages[:2]) == pickle.dumps(free.stages[:2])


def _arrays(x):
    """Every array in x, a workspace's attributes, nested lists and tuples."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _arrays(y)


def _poisoned(prog):
    """A spare dict of one workspace of prog's shape as its size class's,
    every writable buffer of it NaN (float), -1 (int) or True (bool)."""
    spx = lp._Simplex(prog.A.copy(), prog.b.copy(), prog.c)
    spx.A = spx.b_true = None  # as _give leaves it
    for x in _arrays(list(vars(spx).values())):
        if x.flags.writeable:
            x[...] = {"f": np.nan, "i": -1, "b": True}[x.dtype.kind]
    return {prog.n_rows >= lp._DEFER_ROWS: spx}


def _clean(spx):
    """B^-1, the fold's product and the stacked d and gamma hold no NaN."""
    return not any(np.isnan(x).any() for x in (spx.Binv, spx.W, spx.dg))


def test_recycled_buffers_move_no_output_bit(monkeypatch):
    # whatever the workspace holds, load() writes every buffer before the
    # simplex reads it; a report's staged solve and a staged lp.solve, both
    # of 137 rows, take the workspace and give it back
    a = gen_random_spn(16, 5)[0]
    u = a / np.max(np.abs(a))
    prog = cones.build_lp(u, cones.sd_basis(eigen_decompose(u)[1], "Fpm"), capped=True)[0]
    held = [slice(16, 136), slice(136, 256)]  # the report's stages: G, then F+, then F+-
    runs = {
        "report": lambda: cones.membership_report(a),
        "staged": lambda: lp.solve(prog, held=held),
    }
    for name, run in runs.items():
        monkeypatch.setattr(lp, "_spare", {})
        fresh = pickle.dumps(run())
        monkeypatch.setattr(lp, "_spare", spare := _poisoned(prog))
        spx = spare[True]
        assert pickle.dumps(run()) == fresh, name
        # the NaN workspace was taken, and came back holding the solve's numbers
        assert lp._spare[True] is spx and _clean(spx), name
        assert spx.A is None and spx.b_true is None


def test_a_37_row_solve_reuses_its_shapes_workspace(monkeypatch):
    # the n = 8 cell LP of a qpbound probe (37 x 65) takes the workspace the
    # last solve of its shape gave back, and builds no simplex of its own;
    # a small solve of another shape builds one, which takes its place
    monkeypatch.setattr(lp, "_spare", {})
    q = gen_planted_qp(8, 4, -10.0, seed=2).Q
    prog = cones.build_lp(unit_scale(q)[0], cones.sd_basis(eigen_decompose(q)[1], "Fpm"),
                          capped=True)[0]
    assert prog.A.shape == (37, 65)
    first = lp.solve(prog)
    spx = lp._spare[False]
    assert (spx.m, spx.n_struct) == (37, 65)
    built, init = [], lp._Simplex.__init__
    monkeypatch.setattr(lp._Simplex, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert pickle.dumps(lp.solve(prog)) == pickle.dumps(first)
    assert lp._spare == {False: spx} and not built
    other = _detect_lp(gen_random_spn(8, 1)[0], "G")
    assert other.A.shape != (37, 65) and other.n_rows < lp._DEFER_ROWS
    lp.solve(other)
    assert built == [1] and list(lp._spare) == [False] and lp._spare[False] is not spx
    assert (lp._spare[False].m, lp._spare[False].n_struct) == other.A.shape


def test_solutions_and_lps_outlive_later_solves(monkeypatch):
    # tools/fingerprint.py's pattern: keep a report's LPs and answers, make
    # more reports, then re-solve the kept LPs; no kept array is reused
    kept, solve = [], lp.solve

    def recorded(prog, **kwargs):
        sol = solve(prog, **kwargs)
        kept.append((prog, kwargs, sol, pickle.dumps((prog.c, prog.A, prog.b, sol))))
        return sol

    monkeypatch.setattr(lp, "solve", recorded)
    cones.membership_report(gen_random_spn(16, 0)[0])
    monkeypatch.setattr(lp, "solve", solve)
    assert len(kept) == 2
    for seed in (1, 2):
        cones.membership_report(gen_random_spn(16, seed)[0])
    for prog, kwargs, sol, first in kept:
        assert pickle.dumps((prog.c, prog.A, prog.b, sol)) == first
        assert pickle.dumps((prog.c, prog.A, prog.b, solve(prog, **kwargs))) == first


def test_threads_solving_same_size_lps_match_serial_solves(monkeypatch):
    # more threads than cores take and give workspaces of one shape at once,
    # the first of them poisoned; two solves sharing one would move answers
    progs = [_detect_lp(gen_random_spn(16, seed)[0]) for seed in range(4)]
    assert len({prog.A.shape for prog in progs}) == 1
    serial = [pickle.dumps(lp.solve(prog)) for prog in progs]
    monkeypatch.setattr(lp, "_spare", spare := _poisoned(progs[0]))
    poisoned = spare[True]
    found = [[] for _ in progs]

    def work(k):
        for _ in range(3):
            found[k].append(pickle.dumps(lp.solve(progs[k])))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(progs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert found == [[bits] * 3 for bits in serial]
    # the poisoned workspace was taken and solved in
    assert _clean(poisoned) and list(lp._spare) == [True]
    assert (lp._spare[True].m, lp._spare[True].n_struct) == progs[0].A.shape


def test_the_large_workspace_is_the_last_large_solves(monkeypatch):
    # a solve of _DEFER_ROWS rows or more leaves its workspace as the one
    # large one, in place of the one before; a smaller one keeps its own
    # beside it, in place of the small one before
    monkeypatch.setattr(lp, "_spare", {})
    kept = {}
    for n in range(2, 31):
        prog = _detect_lp(gen_random_spn(n, 0)[0], "G")
        assert lp.solve(prog).status == lp.OPTIMAL
        kept[prog.n_rows >= lp._DEFER_ROWS] = prog.A.shape
        assert {k: (s.m, s.n_struct) for k, s in lp._spare.items()} == kept, n
    assert kept == {False: (55, 11), True: (465, 31)}


def test_a_large_lp_leaves_only_the_next_reports_workspace_behind():
    # after the n = 30 F+- LP (465 rows, 3.5 MB for B^-1 and W) and one n = 16
    # report, lp keeps the report's 137-row workspace as its one large one:
    # the L LP's 16 rows are below _DEFER_ROWS
    u = unit_scale(gen_random_spn(30, 0)[0])[0]
    assert cones.check_membership_lp(u, eigen_decompose(u)[1], "Fpm").is_member
    cones.membership_report(gen_random_spn(16, 0)[0])
    spx = lp._spare[True]
    assert (spx.m, spx.n_struct) == (137, 257)
    # an n = 8 bracket's cell LPs (37 rows) leave that workspace in place, unread
    q = gen_planted_qp(8, 4, -10.0, seed=2).Q
    bits = pickle.dumps(qp_optimum(q, eta=0.1))
    for x in (spx.Binv, spx.W):
        x.fill(np.nan)
    assert pickle.dumps(qp_optimum(q, eta=0.1)) == bits
    assert lp._spare[True] is spx and all(np.isnan(x).all() for x in (spx.Binv, spx.W))


def test_a_warm_report_allocates_under_512_kb():
    # the constraint matrix (137 x 258, 282 KB) is the one large array a warm
    # n = 16 report allocates: B^-1 and the fold's product are recycled, and
    # build_lp gathers no copies of the basis vectors (928 KB in all before)
    a = gen_random_spn(16, 0)[0]
    cones.membership_report(a)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cones.membership_report(a)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_the_simplex_takes_its_products_through_dot():
    # the matmul gufunc (which @ calls) cost 0.3-0.9 us more a call than
    # ndarray.dot at detect's 137-row bases; only the row product [row; tau] A
    # stays np.matmul, since its out is the (2, n) structural view of a
    # (2, n + m) buffer, and .dot writes only into a C-contiguous out
    module = ast.parse(inspect.getsource(lp))
    spx = next(node for node in module.body
               if isinstance(node, ast.ClassDef) and node.name == "_Simplex")
    nodes = list(ast.walk(spx))
    assert not [node for node in nodes if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)]
    called = [getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in nodes if isinstance(node, ast.Call)]
    assert called.count("matmul") == 1
