import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from conekit import instances
from conekit.copositivity import CopoConfig
from conekit.instances import (
    Graph,
    InconsistentHeader,
    ParseError,
    complete_graph,
    gen_gnp_graph,
    gen_planted_qp,
    gen_random_spn,
    load_dimacs,
    max_clique_matrix,
    path_graph,
    plant_clique,
    save_dimacs,
    std_qp_matrix,
)
from conekit.linalg import is_psd_cholesky

# frozen fixture: gen_random_spn(5, 12345), first matrix, sha256 of raw bytes
SPN_FIXTURE_DIGEST = "8e6bb30e100b883d384d7ab3283b901af53fc4588b908b083dd0c5f2fa1df364"


def brute_clique_number(g: Graph) -> int:
    adj = g.adjacency()
    for k in range(g.n, 1, -1):
        for sub in itertools.combinations(range(g.n), k):
            if all(adj[i, j] for i, j in itertools.combinations(sub, 2)):
                return k
    return 1


def fast_cfg():
    return CopoConfig(cone_family="Fpm", max_iterations=100_000)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))


def test_load_dimacs_k3(tmp_path):
    p = tmp_path / "k3.col"
    p.write_text("c comment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    g = load_dimacs(p)
    assert g.n == 3 and g.m == 3
    assert g.edges == complete_graph(3).edges


def test_load_dimacs_path(tmp_path):
    p = tmp_path / "p3.col"
    p.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    g = load_dimacs(p)
    assert g.edges == path_graph(3).edges


def test_load_dimacs_self_loop(tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("p edge 3 1\ne 1 1\n")
    with pytest.raises(ParseError) as err:
        load_dimacs(p)
    assert err.value.line == 2


def test_load_dimacs_header_mismatch(tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("p edge 3 5\ne 1 2\n")
    with pytest.raises(InconsistentHeader):
        load_dimacs(p)


def test_load_dimacs_edge_before_header(tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("e 1 2\n")
    with pytest.raises(ParseError):
        load_dimacs(p)


def test_dimacs_roundtrip(tmp_path):
    g = gen_gnp_graph(8, 0.4, seed=5)
    p = tmp_path / "g.col"
    save_dimacs(g, p)
    assert load_dimacs(p).edges == g.edges


def test_max_clique_matrix_examples():
    assert np.array_equal(
        max_clique_matrix(complete_graph(3), 2.0),
        [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
    )
    empty = Graph(2, frozenset())
    assert np.array_equal(max_clique_matrix(empty, 1.0), np.zeros((2, 2)))
    b = max_clique_matrix(path_graph(3), 2.0)
    assert np.allclose(np.diag(b), 1.0)
    assert b[0, 1] == -1.0 and b[0, 2] == 1.0


def test_clique_uniform_vector_value():
    # uniform weight on a k-clique evaluates to gamma/k - 1
    g = plant_clique(gen_gnp_graph(7, 0.3, seed=2), 4, seed=3)
    adj = g.adjacency()
    for k in range(2, g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            if not all(adj[i, j] for i, j in itertools.combinations(sub, 2)):
                continue
            x = np.zeros(g.n)
            x[list(sub)] = 1.0 / k
            for gamma in (k - 0.5, k + 0.5):
                b = max_clique_matrix(g, gamma)
                assert float(x @ b @ x) == pytest.approx(gamma / k - 1.0)


def test_clique_number_examples():
    assert instances.clique_number(complete_graph(4), fast_cfg()) == 4
    assert instances.clique_number(path_graph(3), fast_cfg()) == 2
    tri_plus_iso = Graph(4, frozenset({(0, 1), (0, 2), (1, 2)}))
    assert instances.clique_number(tri_plus_iso, fast_cfg()) == 3


def test_clique_number_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(6):
        n = int(rng.integers(4, 10))
        g = gen_gnp_graph(n, float(rng.uniform(0.3, 0.7)), seed=int(rng.integers(10**6)))
        assert instances.clique_number(g, fast_cfg()) == brute_clique_number(g)


def test_clique_number_inconclusive_budget():
    g = gen_gnp_graph(8, 0.5, seed=1)
    assert instances.clique_number(g, replace(fast_cfg(), max_iterations=1)) is None


def test_std_qp_matrix_examples():
    assert np.array_equal(std_qp_matrix(np.eye(2), 0.0), np.eye(2))
    assert np.array_equal(std_qp_matrix(np.eye(2), 0.5), [[0.5, -0.5], [-0.5, 0.5]])
    assert np.array_equal(std_qp_matrix(np.eye(2), 1.0), [[0.0, -1.0], [-1.0, 0.0]])


def test_qp_optimum_identity():
    b = instances.qp_optimum(np.eye(2), fast_cfg(), eta=0.01)
    assert b.converged
    assert b.lo - 1e-9 <= 0.5 <= b.hi + 1e-9


def test_qp_optimum_zero_matrix():
    b = instances.qp_optimum(np.zeros((3, 3)), fast_cfg(), eta=0.1)
    assert b.converged
    assert b.lo - 1e-9 <= 0.0 <= b.hi + 1e-9


def test_qp_optimum_planted():
    for seed in range(3):
        inst = gen_planted_qp(6, 3, -10.0, seed=seed)
        b = instances.qp_optimum(inst.Q, fast_cfg(), eta=0.1)
        assert b.converged
        assert b.lo - 1e-9 <= -10.0 <= b.hi + 1e-9
        assert b.hi - b.lo <= 0.1 + 1e-12


def test_gen_random_spn_properties():
    for seed in (0, 7):
        a, s, n = gen_random_spn(6, seed)
        assert np.array_equal(a, s + n)
        assert np.min(n) >= 0.0
        assert float(np.min(np.diag(n))) == pytest.approx(0.0)
        assert is_psd_cholesky(s)


def test_gen_random_spn_deterministic():
    a1, s1, n1 = gen_random_spn(5, 12345)
    a2, s2, n2 = gen_random_spn(5, 12345)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(n1, n2)
    assert hashlib.sha256(a1.tobytes()).hexdigest() == SPN_FIXTURE_DIGEST


def test_gen_random_spn_rarely_nonnegative():
    # observed count at freeze time: 0/100 instances elementwise nonnegative
    hits = sum(
        1 for s in range(100) if float(np.min(gen_random_spn(10, s)[0])) >= 0.0
    )
    assert hits < 20


def test_planted_qp_invariants():
    rng = np.random.default_rng(3)
    for seed in range(5):
        inst = gen_planted_qp(8, 4, -10.0, seed=seed)
        assert np.min(inst.x_star) >= 0.0
        assert float(np.sum(inst.x_star)) == pytest.approx(1.0)
        assert float(inst.x_star @ inst.Q @ inst.x_star) == pytest.approx(
            inst.t, abs=1e-9
        )
        for _ in range(20):
            x = rng.dirichlet(np.ones(8))
            assert float(x @ inst.Q @ x) >= inst.t - 1e-9


def test_planted_qp_zero_noise():
    inst = gen_planted_qp(4, 2, -3.0, noise_scale=0.0, seed=1)
    assert np.allclose(inst.Q, -3.0 * np.ones((4, 4)))


def test_planted_qp_validates_support():
    with pytest.raises(ValueError):
        gen_planted_qp(4, 0, -1.0)
    with pytest.raises(ValueError):
        gen_planted_qp(4, 5, -1.0)


def test_plant_clique_guarantee():
    g = plant_clique(gen_gnp_graph(9, 0.2, seed=4), 5, seed=4)
    assert brute_clique_number(g) >= 5
