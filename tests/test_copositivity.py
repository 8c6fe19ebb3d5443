import numpy as np
import pytest

from conekit import cones, instances
from conekit.copositivity import (
    COPOSITIVE,
    INCONCLUSIVE,
    NOT_COPOSITIVE,
    CopoConfig,
    DegenerateEdge,
    bisect,
    longest_edge,
)
from conekit.copositivity import test_copositive as run_copositive


def k_gamma(n, gamma):
    return instances.max_clique_matrix(instances.complete_graph(n), gamma)


def test_bisect_two_dim():
    cell = np.eye(2)
    ci, cj, ti, tj = bisect(cell)
    mid = np.array([0.5, 0.5])
    assert np.allclose(ci[:, 0], mid) or np.allclose(ci[:, 1], mid)
    assert np.allclose(cj[:, 0], mid) or np.allclose(cj[:, 1], mid)
    # the transfer matrices reproduce the children from the parent
    assert np.allclose(cell @ ti, ci)
    assert np.allclose(cell @ tj, cj)


def test_bisect_tie_break_deterministic():
    i, j, _ = longest_edge(np.eye(3))  # equilateral: all edges tie
    assert (i, j) == (0, 1)


def test_bisect_fineness_halves():
    # repeated bisection of the 1-simplex: fineness sqrt(2)/2^10
    cells = [np.eye(2)]
    for _ in range(10):
        nxt = []
        for c in cells:
            a, b, _, _ = bisect(c)
            nxt.extend([a, b])
        cells = nxt
    fineness = max(longest_edge(c)[2] for c in cells)
    assert fineness == pytest.approx(np.sqrt(2.0) / 2**10, rel=1e-12)


def test_bisect_degenerate_edge():
    cell = np.column_stack([np.ones(2) / 2, np.ones(2) / 2])
    with pytest.raises(DegenerateEdge):
        bisect(cell)


def test_degenerate_edge_is_inconclusive():
    # the N family refines toward a zero of the form until an edge is a point
    a = k_gamma(3, 3.0)  # 3 I - E, zero at the barycentre
    for alg2 in (False, True):
        cfg = CopoConfig(cone_family="N", use_alg2=alg2, max_iterations=3000)
        res = run_copositive(a, cfg)
        assert res.outcome == INCONCLUSIVE
        assert res.stats["reason"] == "degenerate-edge"
        assert res.stats["worklist"] > 0


def test_cell_test_errors_are_counted(monkeypatch):
    def fail(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(cones, "check_membership_lp", fail)
    a, _, _ = instances.gen_random_spn(4, 0)
    cfg = CopoConfig(cone_family="Fpm", use_alg2=False, max_iterations=5)
    res = run_copositive(a, cfg)
    assert res.outcome == INCONCLUSIVE
    assert res.stats["reason"] == "iteration-limit"
    assert res.stats["errors"] == {"FloatingPointError": 5}


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


def test_audit_witnesses_reconstruct(monkeypatch):
    # every member removal rests on an S + N witness of its cell's matrix
    residuals = []
    cell_test = cones._dispatch

    def spy(vtav, cone, ep):
        verdict = cell_test(vtav, cone, ep)
        if verdict.is_member:
            residuals.append(verdict.witness_residuals(vtav))
        return verdict

    monkeypatch.setattr(cones, "_dispatch", spy)
    a, _, _ = instances.gen_random_spn(5, 99)
    res = run_copositive(a, CopoConfig(cone_family="Fpm"))
    assert res.outcome == COPOSITIVE
    removals = res.stats["removals"]
    assert len(residuals) == removals["member"] + removals["member_hat"] > 0
    for w in residuals:
        assert w["split"] <= 1e-7
        assert w["n_min"] >= -1e-9


def test_negative_certificate_on_indefinite():
    a = np.array([[1.0, -3.0], [-3.0, 1.0]])
    res = run_copositive(a, CopoConfig(cone_family="Fpm"))
    assert res.outcome == NOT_COPOSITIVE
    v = res.certificate
    assert float(v @ a @ v) < 0.0


def test_refutation_names_the_first_negative_vertex():
    # e_1 and e_2 are both negative; the certificate is the first of them,
    # not the lowest
    a = np.diag([1.0, -1.0, -2.0]) + 0.1
    for fam in ("N", "Fpm"):
        res = run_copositive(a, CopoConfig(cone_family=fam))
        assert res.outcome == NOT_COPOSITIVE
        assert np.array_equal(res.certificate, [0.0, 1.0, 0.0])


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
    assert res.stats["removals"]["screen"] > 0
    assert res.stats["errors"] == {}


def test_config_validation():
    with pytest.raises(ValueError):
        CopoConfig(cone_family="nope")
    with pytest.raises(ValueError):
        CopoConfig(max_iterations=0)


def test_needs_dimension_two():
    with pytest.raises(ValueError):
        run_copositive(np.array([[1.0]]))
