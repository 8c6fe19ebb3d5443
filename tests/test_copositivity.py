import dataclasses
import importlib.util
import itertools
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conekit import cones, copositivity, instances, lp
from conekit.copositivity import (
    COPOSITIVE,
    FAMILIES,
    INCONCLUSIVE,
    NOT_COPOSITIVE,
    CopoConfig,
    _form_above,
    _form_bounds,
    _partition,
    _replicator_start,
    bisect,
    longest_edge,
)
from conekit.copositivity import test_copositive as run_copositive
from conekit.linalg import congruence, eigen_decompose, unit_scale


def k_gamma(n, gamma):
    return instances.max_clique_matrix(instances.complete_graph(n), gamma)


def missed_refutation():
    # not copositive (omega = 3 > 2.5), but the replicator start stays at a
    # nonnegative point, so the partition must bisect to refute it
    g = instances.gen_gnp_graph(7, 0.5, seed=43)
    return instances.max_clique_matrix(g, 2.5)


def staged_verdicts(monkeypatch):
    """The verdicts of every cones._lp_families call from here on, in order,
    each with the number of bases it was given."""
    calls, lp_families = [], cones._lp_families

    def spy(a, bases, families, capped):
        verdicts, r = lp_families(a, bases, families, capped)
        calls.append((len(bases), verdicts))
        return verdicts, r

    monkeypatch.setattr(cones, "_lp_families", spy)
    return calls


def test_bisect_two_dim():
    (ci, qi), (cj, qj) = bisect(np.eye(2))
    assert np.array_equal(ci, [[0.5, 0.0], [0.5, 1.0]])
    assert np.array_equal(cj, [[1.0, 0.5], [0.0, 0.5]])
    assert qi is None and qj is None  # no basis to hand down


def test_bisect_children_replace_one_column_by_the_midpoint():
    rng = np.random.default_rng(3)
    for n in (3, 4, 6):
        cell = rng.dirichlet(np.ones(n), size=n).T  # columns on the simplex
        q = rng.normal(size=(n, n))
        i, j, _ = longest_edge(cell)
        mid = (cell[:, i] + cell[:, j]) / 2
        children = bisect(cell, q)
        assert len(children) == 2
        for (child, basis), col in zip(children, (i, j)):
            expect = cell.copy()
            expect[:, col] = mid
            assert child.tobytes() == expect.tobytes()
            # the child is cell T and inherits T^T q: q with row col replaced
            # by the mean of rows i and j
            t = np.eye(n)
            t[:, col] = (t[:, i] + t[:, j]) / 2
            assert np.allclose(child, cell @ t)
            expect = q.copy()
            expect[col] = (q[i] + q[j]) / 2
            assert basis.tobytes() == expect.tobytes()
            assert np.allclose(basis, t.T @ q)


def test_bisect_tie_break_deterministic():
    i, j, _ = longest_edge(np.eye(3))  # equilateral: all edges tie
    assert (i, j) == (0, 1)


def _loop_longest_edge(v):
    """longest_edge as a loop over the k - 1 leading vertices, one reduction
    each: the reference that the one-pass form must match bit for bit."""
    best = (0, 1, -1.0)
    for i in range(v.shape[1] - 1):
        d = v[:, i + 1 :] - v[:, i : i + 1]
        lengths = np.sqrt(np.sum(d * d, axis=0))
        j = int(np.argmax(lengths))
        if lengths[j] > best[2] + 1e-15:
            best = (i, i + 1 + j, float(lengths[j]))
    return best


def test_longest_edge_matches_the_loop_on_bisected_and_near_tie_cells(monkeypatch):
    cells = []

    def recorded(v):
        cells.append(v.copy())
        return longest_edge(v)

    monkeypatch.setattr(copositivity, "longest_edge", recorded)
    a = instances.max_clique_matrix(instances.gen_gnp_graph(12, 0.5, seed=1), 4.5)
    for family in ("N", "Fpm"):
        run_copositive(a, CopoConfig(cone_family=family, max_iterations=3000))
    monkeypatch.undo()
    assert len(cells) > 1000
    # row maxima 1, 1 + 6u and 1 + 8u: the second beats the first by more
    # than 1e-15 and the third the second by less, so the chain keeps row 1
    # where a plain argmax over all edges would take (2, 3)
    u = 2.0**-52
    chain = np.array([[0.0, -6 * u, -8 * u, 1.0]])
    assert longest_edge(chain) == (1, 3, 1.0000000000000013)
    near = [chain, np.array([[0.0, -4 * u, -8 * u, -12 * u, 1.0]]),
            np.array([[0.0, 1.0, 1.0 + u], [0.0, 0.0, 0.0]]), np.eye(4)]
    rng = np.random.default_rng(0)
    for _ in range(200):  # vertices of a simplex moved by a few ulps
        n, k = rng.integers(1, 5, size=2) + (0, 1)
        near.append(np.eye(n, k) + rng.integers(-9, 10, size=(n, k)) * u)
    for v in cells + near:
        assert longest_edge(v) == _loop_longest_edge(v)


def test_bisect_fineness_halves():
    # repeated bisection of the 1-simplex: fineness sqrt(2)/2^10
    cells = [np.eye(2)]
    for _ in range(10):
        nxt = []
        for c in cells:
            nxt.extend(child for child, _ in bisect(c))
        cells = nxt
    fineness = max(longest_edge(c)[2] for c in cells)
    assert fineness == pytest.approx(np.sqrt(2.0) / 2**10, rel=1e-12)


def test_bisect_degenerate_edge():
    # a cell whose longest edge is shorter than 1e-14 has no children
    cell = np.column_stack([np.ones(2) / 2, np.ones(2) / 2])
    assert bisect(cell) is None
    cell[0, 1] += 5e-15
    assert longest_edge(cell)[2] < 1e-14
    assert bisect(cell) is None


def test_degenerate_edge_is_inconclusive():
    # the N family refines toward a zero of the form until an edge is a point
    a = k_gamma(3, 3.0)  # 3 I - E, zero at the barycentre
    res = run_copositive(a, CopoConfig(cone_family="N", max_iterations=3000))
    assert res.outcome == INCONCLUSIVE
    assert res.stats["reason"] == "degenerate-edge"
    assert res.stats["worklist"] > 0


def test_cell_test_errors_are_counted(monkeypatch):
    def fail_with(exc_type):
        def fail(*args, **kwargs):
            raise exc_type("injected")

        return fail

    monkeypatch.setattr(cones, "build_lp", fail_with(FloatingPointError))
    a, _, _ = instances.gen_random_spn(4, 0)
    cfg = CopoConfig(cone_family="Fpm", max_iterations=5)
    res = run_copositive(a, cfg)
    assert res.outcome == INCONCLUSIVE
    assert res.stats["reason"] == "iteration-limit"
    assert res.stats["errors"] == {"FloatingPointError": 5}
    # only numerical failures are counted; a TypeError is a bug, not a cell
    monkeypatch.setattr(cones, "build_lp", fail_with(TypeError))
    with pytest.raises(TypeError, match="injected"):
        run_copositive(a, cfg)


def test_cell_tests_that_end_numerical_are_counted_and_never_remove(monkeypatch):
    # with every OPTIMAL read as violating a row, each cell LP ends NUMERICAL:
    # counted once per cell, bisected, and never grounds for a removal
    monkeypatch.setattr(lp, "DEFAULT_FEAS_TOL", -1.0)
    a, _, _ = instances.gen_random_spn(4, 0)
    res = run_copositive(a, CopoConfig(cone_family="Fpm", max_iterations=5))
    assert res.outcome == INCONCLUSIVE
    assert res.stats["reason"] == "iteration-limit"
    assert res.stats["errors"] == {"numerical": 5}
    assert res.stats["removals"] == {"member": 0, "member_inherited": 0}
    assert res.stats["lp_calls"] == 5
    assert res.stats["worklist"] == 6


def test_a_cell_whose_inherited_stage_ends_numerical_still_gets_its_own(monkeypatch):
    # a cell follows the report's rule for a stage that ends not optimal:
    # the stages after it run in a fresh simplex.  With every child's
    # inherited stage forced to end NUMERICAL, its own-basis stage is one
    # more solve, with no column held; a member there is a "member"
    # removal, and any other cell is counted once under "numerical".  The
    # cells are F+-'s, whose LP does not see the signs of the inherited
    # eigenvectors, which move with the last bits of the parent's S
    solves, solve = [], lp.solve

    def inherited_fails(prog, held=(), bound=np.inf):
        solves.append(len(held))
        if held:  # a child's stages: the first, over the inherited basis, fails
            failed = lp.LpSolution(lp.NUMERICAL)
            return dataclasses.replace(failed, stages=[failed])
        return solve(prog, held=held, bound=bound)

    monkeypatch.setattr(lp, "solve", inherited_fails)
    staged = staged_verdicts(monkeypatch)
    g = instances.gen_gnp_graph(7, 0.5, seed=1)
    res = run_copositive(instances.max_clique_matrix(g, 3.5),
                         CopoConfig(cone_family="Fpm"))
    assert res.outcome == COPOSITIVE
    roots = [verdicts for bases, verdicts in staged if bases == 1]
    children = [verdicts for bases, verdicts in staged if bases == 2]
    assert len(roots) == 1 and not roots[0][0].is_member
    assert solves == [0] + [1, 0] * len(children)
    assert all(v[0].note == f"lp-{lp.NUMERICAL}" for v in children)
    certified = sum(v[1].is_member for v in children)
    assert 0 < certified < len(children)
    assert res.stats["removals"] == {"member": certified, "member_inherited": 0}
    assert res.stats["errors"] == {"numerical": len(children) - certified}
    assert res.stats["iterations"] == 1 + len(children)


def test_all_ones_copositive_one_iteration():
    res = run_copositive(np.ones((3, 3)), CopoConfig(cone_family="N"))
    assert res.outcome == COPOSITIVE
    assert res.stats["iterations"] == 1


def test_complete_graph_thresholds():
    cfg = CopoConfig(cone_family="Fpm")
    res = run_copositive(k_gamma(5, 5.5), cfg)
    assert res.outcome == COPOSITIVE
    res = run_copositive(k_gamma(5, 4.5), cfg)
    assert res.outcome == NOT_COPOSITIVE
    v = res.certificate
    assert v is not None
    assert np.all(v >= 0) and np.sum(v) == pytest.approx(1.0)
    assert float(v @ k_gamma(5, 4.5) @ v) < 0.0


def test_boundary_with_tiny_budget_inconclusive():
    # gamma = n puts the matrix on the cone boundary; the entrywise test
    # can never remove cells near the uniform point, so budgets bite
    res = run_copositive(
        k_gamma(5, 5.0), CopoConfig(cone_family="N", max_iterations=50)
    )
    assert res.outcome == INCONCLUSIVE
    assert res.stats["reason"] == "iteration-limit"
    assert res.stats["worklist"] > 0


def test_time_limit_inconclusive():
    res = run_copositive(
        k_gamma(6, 6.0), CopoConfig(cone_family="N", time_limit=1e-4)
    )
    assert res.outcome == INCONCLUSIVE
    assert res.stats["reason"] == "time-limit"


def test_audit_witnesses_reconstruct(monkeypatch):
    # every removal rests on an S + N witness of its own cell's matrix
    cases = [
        (instances.gen_random_spn(5, 99)[0], "Fpm", COPOSITIVE),
        (missed_refutation(), "G", NOT_COPOSITIVE),  # bisects many cells first
    ]
    cell_test, staged = cones._cell_test, staged_verdicts(monkeypatch)
    for a, family, outcome in cases:
        members = {"member": [], "member_inherited": []}

        def spy(vtav, cone, inherited):
            kind, basis = cell_test(vtav, cone, inherited)
            if kind in members:  # the first member is the removal's stage
                bases, verdicts = staged[-1]
                first = next(i for i, v in enumerate(verdicts) if v.is_member)
                assert kind == ("member_inherited", "member")[-bases:][first]
                members[kind].append(verdicts[first].witness_residuals(vtav))
            return kind, basis

        monkeypatch.setattr(cones, "_cell_test", spy)
        res = run_copositive(a, CopoConfig(cone_family=family))
        assert res.outcome == outcome
        assert res.stats["errors"] == {}
        removals = res.stats["removals"]
        assert set(removals) == {"member", "member_inherited"}
        assert {k: len(w) for k, w in members.items()} == removals
        assert sum(removals.values()) > 0
        for w in members["member"] + members["member_inherited"]:
            assert w["split"] <= 1e-7
            assert w["n_min"] >= -1e-9
            assert w["s_min"] >= -1e-12


def test_cell_tests_and_membership_reports_pose_capped_lps(monkeypatch):
    # a verdict only needs alpha* >= 0, so every LP that a cell test or a
    # report poses stops once the floor reaches 0
    posed = []
    build = cones.build_lp

    def spy(a, vectors, capped=False):
        posed.append(capped)
        return build(a, vectors, capped=capped)

    monkeypatch.setattr(cones, "build_lp", spy)
    a = instances.gen_random_spn(6, 0)[0]
    qp = instances.gen_planted_qp(6, 3, -5.0, 0)
    g = instances.gen_gnp_graph(6, 0.5, 0)
    for run in (
        lambda: run_copositive(a, CopoConfig(cone_family="G")),
        lambda: run_copositive(missed_refutation(), CopoConfig(cone_family="Fpm")),
        lambda: instances.qp_optimum(qp.Q),
        lambda: instances.clique_number(g),
        lambda: cones.membership_report(a, ["Fpm"]),
        lambda: cones.membership_report(a),
    ):
        posed.clear()
        run()
        assert posed and all(posed)
    # an interior member's alpha* > 0 comes from the uncapped LP; the report
    # gives min(alpha*, max(alpha0, 0)), for F+- alone and for F+- reached
    # from F+'s optimum with the minus columns held
    full = cones.check_membership_lp(a, eigen_decompose(a)[1], "Fpm")
    alpha0 = float(np.min(a))
    assert full.is_member and full.alpha_star > 0 > alpha0
    for report in (cones.membership_report(a, ["Fpm"]), cones.membership_report(a)):
        (fpm,) = [v for v in report if v.cone == "Fpm"]
        assert fpm.is_member and fpm.alpha_star == min(full.alpha_star, max(alpha0, 0.0))


def test_the_root_cell_poses_the_capped_lp_of_its_own_eigenbasis(monkeypatch):
    # the root has no inherited basis: at V = I its one LP is the capped LP
    # of A's own eigenbasis, check_membership_lp's, with the same solution
    # bits, and a member there is a "member" removal in one LP call
    staged = staged_verdicts(monkeypatch)
    horn = np.array([
        [1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
        [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1],
    ], dtype=float)
    cases = [horn] + [instances.gen_random_spn(6, seed)[0] for seed in range(4)]
    for a in cases:
        root = congruence(a, np.eye(len(a)))
        assert root.tobytes() == a.tobytes()
        for family in cones.LP_FAMILIES:
            by_lp = cones.check_membership_lp(a, eigen_decompose(a)[1], family, capped=True)
            (exact,) = cones.membership_report(root, [family])
            assert by_lp.status == exact.status
            assert by_lp.alpha_star == exact.alpha_star
            kind, basis = cones._cell_test(root, family, None)
            assert staged[-1][0] == 1
            (verdict,) = staged[-1][1]
            assert verdict.status == by_lp.status
            assert verdict.alpha_star == by_lp.alpha_star
            assert kind == ("member" if by_lp.is_member else None)
            assert (basis is None) == by_lp.is_member
            res = run_copositive(a, CopoConfig(cone_family=family, max_iterations=1))
            assert res.stats["lp_calls"] == 1
            assert res.stats["removals"] == {"member": int(by_lp.is_member),
                                             "member_inherited": 0}


def test_negative_certificate_on_indefinite():
    a = np.array([[1.0, -3.0], [-3.0, 1.0]])
    res = run_copositive(a, CopoConfig(cone_family="Fpm"))
    assert res.outcome == NOT_COPOSITIVE
    v = res.certificate
    assert float(v @ a @ v) < 0.0


def test_overflowed_cell_is_not_removed_by_h():
    # x^T A x < 0 at x = (1/2, 1/2).  The partition decides A at max|A| in
    # [1, 4), so it refutes with no failed cell test and no removal
    a = np.array([[1e308, -1.5e308], [-1.5e308, 1e308]])
    for family in ("N", "H", *cones.LP_FAMILIES):
        res, _ = _partition(a, CopoConfig(cone_family=family), lambda best: 0.0)
        assert res.outcome == NOT_COPOSITIVE, family
        assert res.stats["removals"] == {"member": 0, "member_inherited": 0}
        assert res.stats["errors"] == {}
    # unscaled, the root V^T A V overflows to +-inf: S = [[inf, -inf],
    # [-inf, inf]] must not pass as PSD, and no LP may be posed on it
    with np.errstate(over="ignore", invalid="ignore"):
        root = congruence(a, np.eye(2))
        assert np.array_equal(root, [[np.inf, -np.inf], [-np.inf, np.inf]])
        for family in ("N", "H"):
            assert cones._cell_test(root, family, None) == (None, None), family
        inherited = eigen_decompose(a)[1]
        for family in cones.LP_FAMILIES:
            with pytest.raises(ValueError, match="coefficients and rhs must be finite"):
                cones._cell_test(root, family, inherited)


def test_entries_near_the_float_range_are_decided():
    # scaled to max|A| in [1, 4), nothing overflows: the PSD pair is
    # copositive at once, and the indefinite one is refuted at (1/2, 1/2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_copositive(np.array([[1e308, -1e308], [-1e308, 1e308]]))
        assert res.outcome == COPOSITIVE and res.stats["errors"] == {}
        res = run_copositive(np.array([[1e308, -1.5e308], [-1.5e308, 1e308]]))
    assert res.outcome == NOT_COPOSITIVE
    assert np.array_equal(res.certificate, [0.5, 0.5])


def test_tiny_matrices_are_refuted_in_every_family():
    # x = (1/2, 1/2) gives -5e-11, within the absolute tolerances of the
    # cell tests: unscaled, H, G, F+ and F+- removed the root cell
    a = 1e-10 * np.array([[1.0, -2.0], [-2.0, 1.0]])
    for family in ("N", "H", "G", "Fplus", "Fpm"):
        res = run_copositive(a, CopoConfig(cone_family=family))
        assert res.outcome == NOT_COPOSITIVE, family
        assert np.array_equal(res.certificate, [0.5, 0.5])


def test_scaling_that_flushes_an_entry_to_zero_raises():
    # 1e-300 / 1e300 is below the smallest subnormal: its sign would be lost
    a = np.array([[1e300, -1e-300], [-1e-300, 1.0]])
    with pytest.raises(ValueError, match="flushes"):
        run_copositive(a)
    # entries that stay nonzero are scaled and decided
    assert run_copositive(np.array([[1e300, -1e-10], [-1e-10, 1.0]])).outcome == COPOSITIVE


def test_refutation_names_the_lowest_point_found():
    # the second and third vertices are both negative; the certificate is
    # the lowest point found, the third, below the replicator start that
    # heads for it, and its exact form is negative
    a = np.diag([1.0, -1.0, -2.0]) + 0.1
    for fam in ("N", "Fpm"):
        res = run_copositive(a, CopoConfig(cone_family=fam))
        assert res.outcome == NOT_COPOSITIVE
        assert res.stats["iterations"] == 1
        assert np.array_equal(res.certificate, [0.0, 0.0, 1.0])
        assert _form_exact(a, res.certificate) < 0


def test_a_negative_start_refutes_in_one_cell():
    # the barycentre, a fixed point of the start's dynamics, has value
    # (5 * 3.5 - 20) / 25 < 0, while every vertex has value 3.5: the start
    # itself is the certificate, and its form is exactly negative
    a = k_gamma(5, 4.5)
    start = _replicator_start(a)
    assert np.min(np.diag(a)) > 0 and _form_exact(a, start) < 0
    for family in FAMILIES:
        res = run_copositive(a, CopoConfig(cone_family=family))
        assert res.outcome == NOT_COPOSITIVE
        assert res.stats["iterations"] == 1 and res.stats["lp_calls"] == 0
        assert np.array_equal(res.certificate, start)
        assert _form_exact(a, res.certificate) < 0


def test_a_vertex_whose_float_form_reads_low_refutes_nothing():
    # A = u u^T with A[2, 2] = 1, u = (r, -7r, 0), is exactly PSD: its 2 x 2
    # block's determinant is +7.2e-15.  A float v^T A v at the vertex
    # (0.875, 0.125, 3.7e-9) read below 0, where the exact form is
    # +1.08e-16, and N returned not_copositive after 59 cells
    r = 1.2391833100190313
    a = np.outer([r, -7 * r, 0.0], [r, -7 * r, 0.0])
    a[2, 2] = 1.0
    assert a[0, 0] > 0 and Fraction(a[0, 0]) * Fraction(a[1, 1]) > Fraction(a[0, 1]) ** 2
    for family in FAMILIES:
        res = run_copositive(a, CopoConfig(cone_family=family))
        if family == "N":  # its cells close in on the form's near-zero
            assert res.outcome == INCONCLUSIVE
            assert res.stats["reason"] == "degenerate-edge"
        else:
            assert res.outcome == COPOSITIVE, family
            assert res.stats["iterations"] == 1, family


def test_strictly_copositive_terminates():
    rng = np.random.default_rng(12)
    for seed in range(5):
        a, _, _ = instances.gen_random_spn(5, seed)
        a = a + 0.05 * np.eye(5)  # enforce a copositivity margin
        res = run_copositive(
            a, CopoConfig(cone_family="Fpm", max_iterations=100_000)
        )
        assert res.outcome == COPOSITIVE


def test_family_iteration_ordering():
    violations = 0
    for seed in range(10):
        a, _, _ = instances.gen_random_spn(6, seed)
        iters = {}
        for fam in ("Fpm", "Fplus", "G"):
            res = run_copositive(
                a, CopoConfig(cone_family=fam, max_iterations=200_000)
            )
            assert res.outcome == COPOSITIVE
            iters[fam] = res.stats["iterations"]
        if not iters["Fpm"] <= iters["Fplus"] <= iters["G"]:
            violations += 1
    assert violations == 0


def test_config_validation():
    with pytest.raises(ValueError):
        CopoConfig(cone_family="nope")
    # the iteration budget counts cells: NaN never fires, inf is no budget
    for limit in (0, -3):
        msg = f"^max_iterations must be at least 1, got {limit}$"
        with pytest.raises(ValueError, match=msg):
            CopoConfig(max_iterations=limit)
    for limit in (float("nan"), float("inf"), 2.5, 10.0, True, "5"):
        msg = f"^max_iterations must be an integer, got {re.escape(repr(limit))}$"
        with pytest.raises(ValueError, match=msg):
            CopoConfig(max_iterations=limit)
    assert CopoConfig(max_iterations=np.int64(7)).max_iterations == 7
    # NaN passes a `<= 0` check, and a budget that never fires is no budget,
    # nor is an integer beyond the float range, which passed as finite
    for limit in (0.0, -1.0, float("nan"), float("inf"), 10**400):
        msg = f"^time_limit must be positive and finite, got {limit}$"
        with pytest.raises(ValueError, match=msg):
            CopoConfig(time_limit=limit)
    # True would pass as 1 s, and "5" would raise a TypeError from the check
    for limit in (True, "5"):
        msg = f"^time_limit must be a real number, got {re.escape(repr(limit))}$"
        with pytest.raises(ValueError, match=msg):
            CopoConfig(time_limit=limit)


def test_config_is_frozen_so_every_value_passes_its_checks():
    # an assignment would skip __post_init__: cone_family "XX" failed every
    # cell test and a NaN time limit was no limit
    cfg = CopoConfig(max_iterations=50)
    for name, value in (("cone_family", "XX"), ("max_iterations", 0),
                        ("time_limit", float("nan"))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == CopoConfig(max_iterations=50)
    # a changed config is a new one, checked again
    with pytest.raises(ValueError, match="^max_iterations must be at least 1, got 0$"):
        dataclasses.replace(cfg, max_iterations=0)
    assert dataclasses.replace(cfg, cone_family="G").cone_family == "G"


def _form_exact(a, x):
    # the loop reference: every product on the floats' exact rational values
    xs = [Fraction(v) for v in x.tolist()]
    n = len(xs)
    num = sum(Fraction(a[i, j]) * xs[i] * xs[j] for i in range(n) for j in range(n))
    return num / sum(xs) ** 2


def test_form_above_is_the_exact_value_rounded_up():
    rng = np.random.default_rng(4)
    cases = []
    for n in (2, 5, 8, 12):
        for scale in (1e-200, 1.0, 1e200):
            a = rng.normal(size=(n, n))
            x = rng.dirichlet(np.ones(n)) * scale
            x[rng.integers(n)] = 0.0
            cases.append(((a + a.T) * scale, x))
    # E - A of a hub with 6 leaves plus a K4, whose minimum on the simplex is
    # 1/4: at the replicator start, a float x^T A x gives 0.24999999999999997
    star = {(0, leaf) for leaf in range(1, 7)}
    k4 = set(itertools.combinations(range(7, 11), 2))
    clique_form = 1.0 - instances.Graph(11, frozenset(star | k4)).adjacency()
    start = _replicator_start(clique_form)
    cases.append((clique_form, start))
    for a, x in cases:
        value, exact = _form_above(a, x), _form_exact(a, x)
        assert Fraction(value) >= exact
        assert Fraction(np.nextafter(value, -np.inf)) < exact
    assert _form_above(clique_form, start) >= 0.25


def test_form_above_is_the_least_float_at_or_above_the_exact_value():
    # _form_exact rounded up through fractions, against _form_above's one
    # integer division and one cross-multiplication
    def rounded_up(exact):
        value = float(exact)
        return value if Fraction(value) >= exact else float(np.nextafter(value, np.inf))

    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    a = a + a.T
    x = rng.dirichlet(np.ones(5))
    below = next(y for y in (rng.dirichlet(np.ones(5)) for _ in range(100))
                 if Fraction(float(_form_exact(a, y))) < _form_exact(a, y))
    cases = {
        "vertex": (a, np.eye(5)[2]),
        "negative": (a - 10.0, x),
        "nearest float below": (a, below),
        "1e308 pair's barycentre": (np.array([[1e308, -1e308], [-1e308, 1e308]]),
                                    np.array([0.5, 0.5])),
        "scaled by 2^-1000": (np.ldexp(a, -1000), x),
    }
    for name, (m, y) in cases.items():
        value = _form_above(m, y)
        assert value == rounded_up(_form_exact(m, y)), name
    assert _form_above(*cases["vertex"]) == a[2, 2]
    assert _form_above(*cases["negative"]) < 0.0
    assert _form_above(*cases["1e308 pair's barycentre"]) == 0.0


def _form_and_spread(a, x):
    # x^T A x and |x|^T |A| |x|, each over (sum x)^2, as Fractions of the
    # floats' exact values: each array is integers over its own power of two
    def ints(v):
        pairs = [t.as_integer_ratio() for t in v.ravel().tolist()]
        den = max(q for _, q in pairs)
        return np.array([p * (den // q) for p, q in pairs], dtype=object).reshape(v.shape), den

    (xs, _), (an, den) = ints(x), ints(a)
    den *= int(xs.sum()) ** 2
    return Fraction(int(xs @ an @ xs), den), Fraction(int(xs @ np.abs(an) @ xs), den)


def _certified_cases():
    # n = 1-20 at scales 2^-600 to 2^600, some entries down to 1e-200 of the
    # peak (products that underflow), some offset by 1e8; starts from the
    # replicator, the simplex's interior, a vertex, and value-0 barycentres
    rng = np.random.default_rng(55)
    for case in range(3000):
        n, scale = int(rng.integers(1, 21)), 2.0 ** int(rng.integers(-600, 601))
        a = rng.normal(size=(n, n))
        if case % 3 == 1:
            a *= 10.0 ** -rng.integers(0, 201, size=(n, n)).astype(float)
        if case % 5 == 2:
            a += 1e8
        if case % 7 == 3:  # a Laplacian of integer weights: its barycentre's value is 0
            w = np.triu(rng.integers(0, 9, size=(n, n)), 1).astype(float)
            a = np.diag(np.sum(w + w.T, axis=1)) - w - w.T
        a, start = (a + a.T) * scale, 3 if case % 7 == 3 else case % 4
        if start == 0:
            yield a, _replicator_start(a)
        elif start == 1:
            yield a, rng.dirichlet(np.ones(n))
        else:
            yield a, np.eye(n)[rng.integers(n)] if start == 2 else np.full(n, 1.0 / n)


def test_certified_start_value_holds_the_exact_value_within_its_bound():
    # _form_bounds's interval holds the exact form, whatever BLAS's summation
    # order, and each end lies within twice its stated half-width of it; hi
    # is never below _form_above's value, and the underflow term keeps hi
    # above a positive form whose products all underflow
    u, tiny = Fraction(1, 2**53), Fraction(1, 2**1074)
    underflow = (np.array([[0.0, 1e-200], [1e-200, 0.0]]), np.array([1.0, 1e-150]))
    assert float(underflow[1] @ underflow[0] @ underflow[1]) == 0.0
    zeros = 0
    for a, x in [underflow, *_certified_cases()]:
        lo, hi = _form_bounds(a, x)
        exact, spread = _form_and_spread(a, x)
        zeros += exact == 0
        s = Fraction(float(x.sum()))  # the computed sum, as the bound reads it
        half = 8 * (len(x) + 1) * u * spread + tiny * ((len(x) + 2) * (1 + s) / s**2 + 4)
        assert Fraction(lo) <= exact <= Fraction(hi)
        assert Fraction(hi) - exact <= 2 * half and exact - Fraction(lo) <= 2 * half
        assert hi >= _form_above(a, x)
    assert _form_bounds(*underflow)[1] > 0.0 and zeros >= 400


def test_a_straddling_certified_start_takes_the_exact_value(monkeypatch):
    # a Laplacian's barycentre, a fixed point of the replicator start, has
    # the exact value 0, the minimum: at test_copositive's level 0 its
    # interval reaches below the level, so _form_above values it, and the
    # partition returns 0.0 exactly at every scale (a float hi would read
    # about 1e-15 above it)
    w = np.array([[0, 3, 1, 0], [3, 0, 2, 5], [1, 2, 0, 4], [0, 5, 4, 0]], dtype=float)
    lap = np.diag(w.sum(axis=1)) - w
    valued = []
    above = copositivity._form_above
    monkeypatch.setattr(copositivity, "_form_above",
                        lambda a, x: valued.append(x.copy()) or above(a, x))
    for e in (-600, 0, 600):
        valued.clear()
        res, best = _partition(2.0**e * lap, CopoConfig(), lambda best: 0.0)
        assert res.outcome == COPOSITIVE and best == 0.0
        assert np.array_equal(valued[0], np.full(4, 0.25))
        lo, hi = _form_bounds(unit_scale(2.0**e * lap)[0], valued[0])
        assert lo < 0.0 < hi


def test_certified_start_values_the_timed_qpbound_catalogue_in_floats(monkeypatch):
    # perfbench's 45 timed qpbound QPs: no start takes the exact fallback
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # as dataclass needs
    spec.loader.exec_module(workloads)
    starts, exact_starts = [], []
    start, above = copositivity._replicator_start, copositivity._form_above
    monkeypatch.setattr(copositivity, "_replicator_start",
                        lambda q: starts.append(start(q)) or starts[-1])
    monkeypatch.setattr(copositivity, "_form_above",
                        lambda a, x: exact_starts.append(x is starts[-1]) or above(a, x))
    qpbound = workloads.WORKLOADS["qpbound"]
    for qp in workloads.make_instances(qpbound, workloads.CATALOGUE_SEED, 0, 45):
        assert qpbound.check(qp, qpbound.solve(qp)) == ""
    assert len(starts) == 45 and not any(exact_starts)


def test_one_by_one_is_decided_at_the_root():
    # the partition serves n = 1 too: its root cell decides, with no error
    for entry, outcome in ((1.0, COPOSITIVE), (0.0, COPOSITIVE),
                           (1e308, COPOSITIVE), (-1.0, NOT_COPOSITIVE),
                           (-1e-300, NOT_COPOSITIVE)):
        for family in FAMILIES:
            res = run_copositive(np.array([[entry]]), CopoConfig(cone_family=family))
            assert res.outcome == outcome, (entry, family)
            assert res.stats["iterations"] == 1
            assert res.stats["errors"] == {}
            if outcome == NOT_COPOSITIVE:
                assert res.certificate.tolist() == [1.0]
            else:
                assert res.certificate is None


def _clique_graphs():
    """ROADMAP item 14's 12 graphs: G(n, 1/2), n = 7..11, from default_rng(5)."""
    rng = np.random.default_rng(5)
    return [instances.gen_gnp_graph(int(rng.integers(7, 12)), 0.5,
                                    seed=int(rng.integers(0, 1_000_000)))
            for _ in range(12)]


def _omega(g):
    # brute force, with no conekit code: the largest set of pairwise edges
    adj = g.adjacency()
    return max(k for k in range(1, g.n + 1)
               for sub in itertools.combinations(range(g.n), k)
               if all(adj[i, j] for i, j in itertools.combinations(sub, 2)))


def test_a_childs_inherited_stage_reaches_its_parents_alpha(monkeypatch):
    # the child V T of a failed cell has T^T (V^T A V - s) T as its matrix,
    # and the parent's witness S + N maps to T^T S T, in the inherited G
    # columns, plus T^T N T, whose least entry is at least N's: at the same
    # shift the child's first stage reaches at least the parent's alpha*
    mats = [instances.max_clique_matrix(g, _omega(g) + 0.5) for g in _clique_graphs()[:6]]
    for seed in range(4):  # PSD + N, shifted below the cone along E
        a = instances.gen_random_spn(6, seed)[0]
        full = cones.check_membership_lp(a, eigen_decompose(a)[1], "Fpm")
        mats.append(a - (full.alpha_star + 0.3 * np.max(np.abs(a))))
    pairs, staged = 0, staged_verdicts(monkeypatch)
    for a in mats:
        a = unit_scale(a)[0]
        for family in ("G", "Fpm"):
            cells = [(np.eye(len(a)), None)]
            for _ in range(4):  # the failing cells of four levels
                failing = []
                for v, inherited in cells:
                    _, basis = cones._cell_test(congruence(a, v), family, inherited)
                    if basis is not None:
                        failing.append((v, basis, staged[-1][1][-1].alpha_star))
                cells = []
                for v, basis, alpha in failing:
                    for child, inherited in bisect(v, basis):
                        cones._cell_test(congruence(a, child), family, inherited)
                        first = staged[-1][1][0]
                        assert first.note == "" and first.alpha_star is not None
                        assert first.alpha_star >= alpha - 1e-12 * max(1.0, abs(alpha))
                        pairs += 1
                        cells.append((child, inherited))
    assert pairs >= 100


def test_the_inherited_basis_keeps_the_clique_partition_small():
    # ROADMAP item 14's graphs at omega + 1/2, all copositive: the hat LP
    # of one global eigen pair, then each cell's own LP, took 436 cells;
    # the parent's witness basis, then the cell's own, takes 40
    cells = 0
    for g in _clique_graphs():
        a = instances.max_clique_matrix(g, _omega(g) + 0.5)
        res = run_copositive(a, CopoConfig(cone_family="Fpm"))
        assert res.outcome == COPOSITIVE
        cells += res.stats["iterations"]
    assert cells <= 60
