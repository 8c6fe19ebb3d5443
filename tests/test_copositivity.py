import numpy as np
import pytest

from conekit import instances
from conekit.copositivity import (
    COPOSITIVE,
    INCONCLUSIVE,
    NOT_COPOSITIVE,
    CopoConfig,
    DegenerateEdge,
    SimplexCell,
    bisect,
    standard_simplex,
    vertex_negative,
)
from conekit.copositivity import test_copositive as run_copositive
from conekit.linalg import congruence


def k_gamma(n, gamma):
    return instances.max_clique_matrix(instances.complete_graph(n), gamma)


def test_bisect_two_dim():
    cell = standard_simplex(2)
    ci, cj, ti, tj = bisect(cell)
    mid = np.array([0.5, 0.5])
    assert np.allclose(ci.vertices[:, 0], mid) or np.allclose(ci.vertices[:, 1], mid)
    assert np.allclose(cj.vertices[:, 0], mid) or np.allclose(cj.vertices[:, 1], mid)
    assert ci.depth == cj.depth == 1
    # the transfer matrices reproduce the children from the parent
    assert np.allclose(cell.vertices @ ti, ci.vertices)
    assert np.allclose(cell.vertices @ tj, cj.vertices)


def test_bisect_tie_break_deterministic():
    cell = standard_simplex(3)  # equilateral: all edges tie
    i, j, _ = cell.longest_edge()
    assert (i, j) == (0, 1)


def test_bisect_fineness_halves():
    # repeated bisection of the 1-simplex: fineness sqrt(2)/2^10
    cells = [standard_simplex(2)]
    for _ in range(10):
        nxt = []
        for c in cells:
            a, b, _, _ = bisect(c)
            nxt.extend([a, b])
        cells = nxt
    fineness = max(c.diameter() for c in cells)
    assert fineness == pytest.approx(np.sqrt(2.0) / 2**10, rel=1e-12)


def test_bisect_degenerate_edge():
    cell = SimplexCell(np.column_stack([np.ones(2) / 2, np.ones(2) / 2]))
    with pytest.raises(DegenerateEdge):
        bisect(cell)


def test_vertex_negative_examples():
    cell = standard_simplex(3)
    v = vertex_negative(-np.eye(3), cell)
    assert v is not None and float(v @ -np.eye(3) @ v) == pytest.approx(-1.0)
    assert vertex_negative(np.ones((3, 3)), cell) is None
    assert vertex_negative(2.9 * np.eye(3) - np.ones((3, 3)), cell) is None


def test_all_ones_copositive_one_iteration():
    res = run_copositive(np.ones((3, 3)), CopoConfig(cone_family="N"))
    assert res.outcome == COPOSITIVE
    assert res.stats["iterations"] == 1


def test_complete_graph_thresholds():
    for alg2 in (False, True):
        cfg = CopoConfig(cone_family="Fpm", use_alg2=alg2)
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


def test_audit_witnesses_reconstruct():
    a, _, _ = instances.gen_random_spn(5, 99)
    cfg = CopoConfig(cone_family="Fpm", audit=True)
    res = run_copositive(a, cfg)
    assert res.outcome == COPOSITIVE
    member_records = [r for r in res.audit_records if r["kind"].startswith("member")]
    assert member_records
    for rec in member_records[:10]:
        vtav = congruence(a, rec["vertices"])
        verdict = rec["verdict"]
        res_w = verdict.witness_residuals(vtav)
        assert res_w["split"] <= 1e-7
        assert res_w["n_min"] >= -1e-9


def test_negative_certificate_on_indefinite():
    a = np.array([[1.0, -3.0], [-3.0, 1.0]])
    res = run_copositive(a, CopoConfig(cone_family="Fpm"))
    assert res.outcome == NOT_COPOSITIVE
    v = res.certificate
    assert float(v @ a @ v) < 0.0


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


def test_alg2_matches_alg1_outcomes():
    rng = np.random.default_rng(77)
    for seed in range(5):
        a, _, _ = instances.gen_random_spn(4, seed)
        r1 = run_copositive(a, CopoConfig(cone_family="G", use_alg2=False))
        r2 = run_copositive(a, CopoConfig(cone_family="G", use_alg2=True))
        assert r1.outcome == r2.outcome == COPOSITIVE
        assert r2.stats["iterations"] <= r1.stats["iterations"]


def test_warm_start_screening_counted():
    # a matrix that needs refinement gives the screen rule a chance to fire
    a = k_gamma(5, 4.5)
    res = run_copositive(a, CopoConfig(cone_family="G", use_alg2=True))
    assert res.outcome == NOT_COPOSITIVE
    assert "warm_start" in res.stats


def test_config_validation():
    with pytest.raises(ValueError):
        CopoConfig(cone_family="nope")
    with pytest.raises(ValueError):
        CopoConfig(max_iterations=0)


def test_needs_dimension_two():
    with pytest.raises(ValueError):
        run_copositive(np.array([[1.0]]))
