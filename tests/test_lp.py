import warnings

import numpy as np
import pytest

from conekit import cones, lp
from conekit.instances import complete_graph, gen_random_spn, max_clique_matrix
from conekit.linalg import eigen_decompose


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
    return cones.build_lp(a, cones.sd_basis(eigen_decompose(a).P, family))[0]


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
    # a negative tolerance makes every OPTIMAL point take the refine branch:
    # one more refactorization, and x moves by rounding only
    prog = _detect_lp(gen_random_spn(16, 0)[0])
    plain = lp.solve(prog)
    monkeypatch.setattr(lp, "DEFAULT_FEAS_TOL", -1.0)
    refined = lp.solve(prog)
    assert plain.status == refined.status == lp.OPTIMAL
    assert refined.iterations == plain.iterations
    assert refined.refactorizations == plain.refactorizations + 1
    assert np.max(np.abs(refined.x - plain.x)) <= 1e-10
    assert np.all(refined.x >= 0.0)
    assert prog.constraint_violation(refined.x) <= 1e-8


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


def test_held_columns_give_the_lp_without_them_first():
    # G's basis is F+'s diagonal columns and F+'s the first n(n+1)/2 of
    # F+-'s; holding the other columns of the larger LP solves the smaller
    # one bit for bit, and the same simplex continues to the larger optimum
    iu, ju, _ = cones._sd_index(16, "Fplus")
    for seed in range(4):
        a = gen_random_spn(16, seed)[0]
        for family, held in (("Fplus", np.flatnonzero(iu != ju)),
                             ("Fpm", np.arange(iu.size, 16 * 16))):
            prog = _detect_lp(a, family)
            keep = np.setdiff1d(np.arange(prog.n_vars), held)
            small = lp.LinearProgram(prog.c[keep], prog.A[:, keep], prog.b)
            cold, sol = lp.solve(small), lp.solve(prog, held=held)
            first = sol.first
            assert (first.status, first.iterations) == (cold.status, cold.iterations)
            assert first.objective_value == cold.objective_value
            assert np.array_equal(first.x[keep], cold.x) and not np.any(first.x[held])
            assert np.array_equal(first.dual, cold.dual)
            full = lp.solve(prog)
            assert sol.status == full.status == lp.OPTIMAL
            assert sol.iterations > first.iterations
            obj = full.objective_value
            tol = 1e-12 * max(1.0, abs(obj))
            assert abs(sol.objective_value - obj) <= tol, (seed, family)
            assert prog.constraint_violation(sol.x) <= lp.DEFAULT_FEAS_TOL
            assert full.first is None


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
    sol = lp.solve(prog, held=[1])
    assert sol.status == sol.first.status == lp.UNBOUNDED
    assert sol is not sol.first and sol.first.first is None
    monkeypatch.setattr(lp, "_PIVOTS_PER_SIZE", 0)
    sol = lp.solve(prog, held=[0])
    assert sol.status == sol.first.status == lp.ITERATION_LIMIT
    # held indexes the columns as numpy does: past the end is refused
    with pytest.raises(IndexError):
        lp.solve(prog, held=[2])
