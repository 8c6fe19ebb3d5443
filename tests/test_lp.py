import numpy as np
import pytest

from conekit import cones, lp
from conekit.instances import complete_graph, gen_random_spn, max_clique_matrix
from conekit.linalg import eigen_decompose

LE, GE, EQ = "<=", ">=", "=="  # tags of the (coefficients, tag, rhs) rows below


def _ge_rows(rows, nvar):
    """Tagged rows as >= rows: the <= and == rows negated, then the >= and
    == rows.  Returns (A, rhs, origin, sign), row r of A being sign[r] times
    input row origin[r]."""
    tags = np.array([r[1] for r in rows], dtype=str)
    le = np.flatnonzero(tags != GE)
    ge = np.flatnonzero(tags != LE)
    origin = np.concatenate([le, ge])
    sign = np.repeat([-1.0, 1.0], [le.size, ge.size])
    a = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), nvar)
    b = np.array([r[2] for r in rows], dtype=float)
    return a[origin] * sign[:, None], b[origin] * sign, origin, sign


def _lp(objective, rows, bounds=None):
    """Matrix-form LP from (coefficients, tag, rhs) rows and (lo, hi) bounds."""
    a, b, _, _ = _ge_rows(rows, len(objective))
    lo, hi = (-np.inf, np.inf) if bounds is None else np.array(bounds, dtype=float).T
    return lp.LinearProgram(objective, a, b, lo, hi)


def _row_duals(rows, nvar, dual):
    """The multiplier of each tagged row, read back through _ge_rows."""
    _, _, origin, sign = _ge_rows(rows, nvar)
    return np.bincount(origin, weights=sign * dual, minlength=len(rows))


def _solve(objective, rows, bounds=None, **kw):
    return lp.solve(_lp(objective, rows, bounds), **kw)


def test_single_variable_box():
    sol = _solve([1.0], [([1.0], LE, 3.0)], [(0.0, np.inf)])
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_infeasible_box():
    # no point meets x >= 1 and x <= 0, so the bound point x = 0 cannot
    with pytest.raises(ValueError, match="bound point"):
        _solve([1.0], [([1.0], GE, 1.0), ([1.0], LE, 0.0)])


def test_bound_point_violation_raises():
    # feasible at x = 1, but not at the bound point x = 0 of a free x
    with pytest.raises(ValueError, match="bound point"):
        _solve([1.0], [([1.0], GE, 1.0)])
    # an empty row with a positive rhs holds nowhere
    with pytest.raises(ValueError, match="bound point"):
        lp.solve(lp.LinearProgram([1.0], [[0.0]], [1e-3], lo=0.0, hi=1.0))
    # an empty row with rhs <= 0 holds everywhere; its slack stays basic
    sol = lp.solve(lp.LinearProgram([1.0], [[0.0]], [-1.0], lo=0.0, hi=1.0))
    assert sol.status == lp.OPTIMAL and sol.x[0] == 1.0
    assert sol.dual[0] == 0.0
    # a violation of rounding size is clamped: the start is x = 0
    sol = _solve([-1.0], [([1.0], GE, 1e-12)], [(0.0, 1.0)])
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == 0.0 and sol.iterations == 0


def test_duplicated_row():
    # maximize alpha s.t. omega <= 2, omega >= alpha (twice)
    rows = [
        ([1.0, 0.0], LE, 2.0),
        ([1.0, -1.0], GE, 0.0),
        ([1.0, -1.0], GE, 0.0),
    ]
    sol = _solve([0.0, 1.0], rows)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0)


def test_unbounded():
    sol = _solve([1.0], [], [(0.0, np.inf)])
    assert sol.status == lp.UNBOUNDED


def test_equality_row():
    # x + y == 1 through the bound point (0, 1); the optimum moves along it
    rows = [([1.0, 1.0], EQ, 1.0)]
    sol = _solve([2.0, 1.0], rows, [(0.0, 3.0), (-np.inf, 1.0)])
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(4.0)
    assert np.allclose(sol.x, [3.0, -2.0])


def test_iteration_limit_status():
    rng = np.random.default_rng(1)
    n, m = 8, 16
    # rows around the bound point x = 0
    rows = [(a, LE, 0.5) for a in rng.normal(size=(m, n))]
    c = rng.normal(size=n)
    assert _solve(c, rows, [(0.0, 10.0)] * n).iterations > 1
    sol = _solve(c, rows, [(0.0, 10.0)] * n, max_iters=1)
    assert sol.status == lp.ITERATION_LIMIT
    assert sol.iterations == 1


def test_klee_minty_cube_takes_few_pivots():
    # max sum_j 2^(n-j) x_j  s.t.  2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i,
    # x >= 0 (1-based): Dantzig's rule visits all 2^n vertices, 255 pivots
    # at n = 8, where steepest edge heads for the optimum (0, ..., 0, 5^n)
    n = 8
    a = np.zeros((n, n))
    for i in range(n):
        a[i, :i] = 2.0 ** (i - np.arange(i) + 1)
        a[i, i] = 1.0
    c = 2.0 ** (n - 1 - np.arange(n))
    sol = lp.solve(lp.LinearProgram(c, -a, -(5.0 ** np.arange(1, n + 1)), lo=0.0))
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(5.0**n, rel=1e-12)
    assert sol.iterations <= n


def test_rhs_jitter_keeps_degenerate_detection_lps_off_blands_rule():
    # the clique detection LPs start from a highly degenerate vertex; without
    # the simplex's rhs jitter they took 243 to 19750 pivots, up to 19155 of
    # them under Bland's rule, where with it they take 62 to 234
    for n in (12, 16):
        for gamma in (n - 0.5, n + 0.5):
            ep = eigen_decompose(max_clique_matrix(complete_graph(n), gamma))
            for family in ("Fplus", "Fpm"):
                sol = lp.solve(cones.build_lp(ep, family))
                assert sol.status == lp.OPTIMAL
                assert sol.bland_pivots == 0
                assert sol.iterations <= 500, (n, gamma, family, sol.iterations)


def test_beale_cycling_lp():
    # Beale's example (1955), on which Dantzig's rule with a lowest-index
    # tie-break cycles; the optimum -1/20 of its min form is at x = (1/25, 0, 1, 0)
    rows = [
        ([0.25, -60.0, -0.04, 9.0], LE, 0.0),
        ([0.5, -90.0, -0.02, 3.0], LE, 0.0),
        ([0.0, 0.0, 1.0, 0.0], LE, 1.0),
    ]
    sol = _solve([0.75, -150.0, 0.02, -6.0], rows, [(0.0, np.inf)] * 4)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.05, rel=1e-12)
    assert np.allclose(sol.x, [0.04, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-12)


def test_malformed_rejected_at_construction():
    with pytest.raises(ValueError):
        lp.LinearProgram([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram([np.inf], [], [])
    with pytest.raises(ValueError):
        lp.LinearProgram([1.0], [], [], lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        lp.LinearProgram([1.0], [[1.0]], [np.nan])
    with pytest.raises(ValueError):
        lp.LinearProgram([1.0], [[1.0], [2.0]], [1.0, 1.0, 1.0])


def test_objective_matches_solution_vector():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = rng.normal(size=n)
        x_b = np.full(n, -5.0)  # the bound point
        rows = [
            (a, LE, float(a @ x_b) + rng.uniform(0.1, 1.0))
            for a in rng.normal(size=(n + 2, n))
        ]
        sol = _solve(c, rows, [(-5.0, 5.0)] * n)
        assert sol.status == lp.OPTIMAL
        scale = max(1.0, abs(sol.objective_value))
        assert abs(sol.objective_value - float(c @ sol.x)) <= 1e-9 * scale


def test_known_feasible_lps_stay_feasible():
    # 1000 random LPs whose rows all hold strictly at a known point, the
    # box corner x = 0 that the solver starts from
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 2 * n + 1))
        rows = []
        for _ in range(m):
            a = rng.normal(size=n)
            margin = rng.uniform(0.05, 1.0)
            if rng.uniform() < 0.5:
                rows.append((a, LE, margin))
            else:
                rows.append((a, GE, -margin))
        prog = _lp(rng.normal(size=n), rows, [(0.0, 4.0)] * n)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        assert prog.constraint_violation(sol.x) <= 1e-8


def test_weak_duality_and_stationarity():
    # free variables, mixed senses, deliberate singleton rows, all holding
    # at the bound point x = 0; each variable is fenced in by two rows
    # around a centre within 4 of it
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 2 * n + 3))
        centre = rng.uniform(-4.0, 4.0, size=n)
        rows = []
        for _ in range(m):
            if rng.uniform() < 0.3:
                a = np.zeros(n)
                a[rng.integers(0, n)] = rng.normal() or 1.0
            else:
                a = rng.normal(size=n)
            margin = rng.uniform(0.0, 2.0)
            if rng.uniform() < 0.5:
                rows.append((a, LE, margin))
            else:
                rows.append((a, GE, -margin))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, LE, float(centre[j]) + 5.0))
            rows.append((e, GE, float(centre[j]) - 5.0))
        c = rng.normal(size=n)
        prog = _lp(c, rows)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        by = float(sol.dual @ prog.rhs)
        assert abs(by - sol.objective_value) <= 1e-7 * max(1.0, abs(by))
        stat = c - sol.dual @ prog.A
        assert np.max(np.abs(stat)) <= 1e-7
        tags = np.array([r[1] for r in rows])
        dual = _row_duals(rows, n, sol.dual)
        assert np.all(dual[tags == LE] >= -1e-9)
        assert np.all(dual[tags == GE] <= 1e-9)


def test_singleton_rows_get_valid_duals():
    # x <= 1 twice around x <= 3; y <= 1 as a >= row and as a <= row
    rows = [
        ([1.0, 0.0], LE, 1.0),
        ([1.0, 0.0], LE, 3.0),
        ([1.0, 0.0], LE, 1.0),
        ([0.0, 1.0], GE, -2.0),
        ([0.0, -1.0], GE, -1.0),
        ([0.0, 1.0], LE, 1.0),
        ([1.0, 1.0], LE, 5.0),
    ]
    prog = _lp([1.0, 1.0], rows)
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert np.array_equal(sol.x, [1.0, 1.0])
    assert float(sol.dual @ prog.rhs) == pytest.approx(sol.objective_value, abs=1e-12)
    assert np.max(np.abs(prog.objective - sol.dual @ prog.A)) <= 1e-12
    tags = np.array([r[1] for r in rows])
    dual = _row_duals(rows, 2, sol.dual)
    assert np.all(dual[tags == LE] >= 0.0)
    assert np.all(dual[tags == GE] <= 0.0)
    # rows 1, 3 and 6 are slack at x
    assert np.all(dual[[1, 3, 6]] == 0.0)


def test_determinism():
    rng = np.random.default_rng(9)
    n = 5
    c = rng.normal(size=n)
    rows = [(a, LE, 1.0) for a in rng.normal(size=(8, n))]
    prog = _lp(c, rows, [(0.0, 2.0)] * n)
    s1 = lp.solve(prog)
    s2 = lp.solve(prog)
    assert s1.status == s2.status == lp.OPTIMAL
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


def test_repeated_136_row_solves_are_identical_and_leave_the_lp_alone():
    # the F+- LP of a detect-size matrix runs folds of up to 20 pending
    # updates and two refactorizations in the per-solve workspace
    prog = cones.build_lp(eigen_decompose(gen_random_spn(16, 0)[0]), "Fpm")
    assert prog.n_rows == 136
    before = {k: getattr(prog, k).tobytes() for k in ("A", "rhs", "lo", "hi")}
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
    """A random LP around its bound point x_b that mixes <=, >= and == rows,
    singleton rows, and free, lower-bounded, upper-bounded and boxed
    variables.  Every row holds at x_b, some of them tightly."""
    n = int(rng.integers(2, 7))
    kind = rng.integers(0, 4, size=n)  # free, lower, upper, boxed
    base = rng.normal(size=n)
    top = base + rng.uniform(0.0, 3.0, size=n)
    lo = np.where((kind == 1) | (kind == 3), base, -np.inf)
    hi = np.where(kind == 2, base, np.where(kind == 3, top, np.inf))
    x_b = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    rows = []
    for _ in range(int(rng.integers(n, 2 * n + 3))):
        u = rng.uniform()
        if u < 0.25:
            a = np.zeros(n)
            a[rng.integers(0, n)] = rng.normal() or 1.0
        else:
            a = rng.normal(size=n)
        if u > 0.85:
            rows.append((a, EQ, float(a @ x_b)))
        elif rng.uniform() < 0.5:
            rows.append((a, LE, float(a @ x_b) + rng.uniform(0.0, 2.0)))
        else:
            rows.append((a, GE, float(a @ x_b) - rng.uniform(0.0, 2.0)))
    return _lp(rng.normal(size=n), rows, list(zip(lo, hi)))


def test_matches_highs_on_random_mixed_lps():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2718)
    statuses = {0: lp.OPTIMAL, 3: lp.UNBOUNDED}
    seen = set()
    for _ in range(300):
        prog = _random_mixed_lp(rng)
        ref = optimize.linprog(
            -prog.objective,
            A_ub=-prog.A,
            b_ub=-prog.rhs,
            bounds=[
                (None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                for lo, hi in zip(prog.lo, prog.hi)
            ],
            method="highs",
            # HiGHS's presolve calls some of these unbounded LPs infeasible
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


def test_deferred_updates_keep_an_inverse_across_folds():
    # B^-1 = Binv - U[:t]^T V[:t]; at 136 rows up to 20 updates wait to be
    # folded, and the 202 pivots pass two refactorizations
    a = gen_random_spn(16, 0)[0]
    sf, infeasible = lp._to_standard_form(cones.build_lp(eigen_decompose(a), "Fpm"))
    assert not infeasible
    spx = lp._Simplex(sf.A, sf.b, sf.c)
    w = np.hstack([sf.A, np.eye(spx.m)])
    held = set()
    while spx.solve(spx.iterations + 1) == lp.ITERATION_LIMIT:
        held.add(spx.t)
        binv = spx.Binv - spx.U[: spx.t].T @ spx.V[: spx.t]
        assert np.max(np.abs(binv @ w[:, spx.basis] - np.eye(spx.m))) <= 1e-9
    assert held == set(range(20))
    assert spx.refactorizations >= 2
    # below 64 rows every pivot folds at once
    small = lp._to_standard_form(cones.build_lp(eigen_decompose(a[:8, :8]), "Fpm"))[0]
    spx = lp._Simplex(small.A, small.b, small.c)
    while spx.solve(spx.iterations + 1) == lp.ITERATION_LIMIT:
        assert spx.t == 0
    assert spx.iterations > 1


def _fpm_simplex(n):
    a = gen_random_spn(n, 0)[0]
    sf, infeasible = lp._to_standard_form(cones.build_lp(eigen_decompose(a), "Fpm"))
    assert not infeasible
    return lp._Simplex(sf.A, sf.b, sf.c)


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
    a = gen_random_spn(16, 0)[0]
    prog = cones.build_lp(eigen_decompose(a), "Fpm")
    clean = lp.solve(prog)
    assert clean.pinv_fallbacks == 0 and clean.refactorizations >= 2

    def singular(x):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.pinv_fallbacks == sol.refactorizations >= 2
    assert abs(sol.objective_value - clean.objective_value) <= 1e-9
