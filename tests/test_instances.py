import hashlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from conekit import cones, copositivity, instances
from conekit.copositivity import CopoConfig
from conekit.instances import (
    Graph,
    ParseError,
    complete_graph,
    format_dimacs,
    gen_gnp_graph,
    gen_planted_qp,
    gen_random_spn,
    load_dimacs,
    max_clique_matrix,
    plant_clique,
    std_qp_matrix,
)
from conekit.linalg import as_sym_matrix, is_psd_cholesky

# frozen fixture: gen_random_spn(5, 12345), first matrix, sha256 of raw bytes
SPN_FIXTURE_DIGEST = "8e6bb30e100b883d384d7ab3283b901af53fc4588b908b083dd0c5f2fa1df364"

P3 = Graph(3, frozenset({(0, 1), (1, 2)}))  # the path on 3 nodes


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


def test_graph_keeps_its_edges_as_a_frozenset_of_pairs(tmp_path):
    # a repeated edge counted twice in m and in the DIMACS header, a listed
    # edge missed by has_edge, a generator was spent by the checks, and a
    # set of edges made the frozen graph unhashable
    g = Graph(3, [(0, 1), (0, 1)])
    assert g.m == 1 and g.edges == frozenset({(0, 1)})
    assert instances.format_dimacs(g) == "p edge 3 1\ne 1 2\n"
    path = tmp_path / "g.col"
    path.write_text(instances.format_dimacs(g))
    assert instances.load_dimacs(path) == g
    listed = Graph(3, [[0, 1]])
    assert listed.has_edge(0, 1) and listed.adjacency()[0, 1] == 1
    assert Graph(3, ((0, j) for j in (1, 2))).m == 2
    assert hash(Graph(3, {(0, 1)})) == hash(g)
    assert Graph(3, [(0, 1)]) == Graph(3, frozenset({(0, 1)}))
    for edge in ((0, 1, 2), (0,), 0, "01"):
        with pytest.raises(ValueError, match="invalid edge"):
            Graph(3, [edge])


def test_graph_refuses_a_size_or_endpoint_that_is_not_an_integer():
    # (0, 1.5) passed and .adjacency() raised numpy's IndexError; n = 2.5
    # failed later with a TypeError.  A bool is not taken for 0 or 1
    for n in (2.5, True, 3.0, "3"):
        with pytest.raises(ValueError, match="graph size n must be an integer"):
            Graph(n, frozenset())
    for edge in ((0, 1.5), (0.0, 1), (False, 2), (0, np.float64(2.0))):
        with pytest.raises(ValueError, match="invalid edge"):
            Graph(3, frozenset({edge}))
    # numpy integers, as plant_clique draws its nodes
    g = Graph(np.int64(3), frozenset({(np.int64(0), np.intp(2))}))
    assert g.adjacency().tolist() == [[0, 0, 1], [0, 0, 0], [1, 0, 0]]


@pytest.mark.parametrize("call, what, size", [
    (lambda v: plant_clique(P3, v, seed=0), "clique size k", 2.5),
    (lambda v: plant_clique(P3, v, seed=0), "clique size k", True),
    (lambda v: gen_planted_qp(8, v, -1.0, seed=0), "support_size", 2.5),
    (lambda v: gen_planted_qp(v, 2, -1.0, seed=0), "n", 8.0),
    (lambda v: gen_gnp_graph(v, 0.5, seed=0), "n", 2.5),
    (lambda v: gen_random_spn(v, 0), "n", 2.5),
    (lambda v: gen_random_spn(v, 0), "n", False),
    (lambda v: complete_graph(v), "graph size n", 2.5),
])
def test_generators_refuse_a_size_that_is_not_an_integer(call, what, size):
    # these raised numpy's TypeError or ValueError, or Python's TypeError,
    # none of which named the size; numpy integers are still sizes
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got {size!r}$"):
        call(size)
    assert call(np.int64(3)) is not None


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
    assert g.edges == P3.edges


def test_load_dimacs_self_loop(tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("p edge 3 1\ne 1 1\n")
    with pytest.raises(ParseError) as err:
        load_dimacs(p)
    assert err.value.line == 2


def test_load_dimacs_header_mismatch(tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("c three nodes\np edge 3 5\ne 1 2\n")
    with pytest.raises(ParseError) as err:
        load_dimacs(p)
    assert err.value.line == 2  # the header's line
    assert str(err.value) == "line 2: header declares 5 edges, file has 1"


def test_load_dimacs_edge_before_header(tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("e 1 2\n")
    with pytest.raises(ParseError):
        load_dimacs(p)


@pytest.mark.parametrize("text, line, message", [
    ("p edge 2 0\np edge 2 0\n", 2, "duplicate problem line"),
    ("c header\np edge 3\n", 2, "malformed problem line"),
    ("p graph 3 0\n", 1, "malformed problem line"),
    ("p edge three 0\n", 1, "non-integer header fields"),
    ("p edge 0 0\n", 1, "invalid header counts"),
    ("p edge 3 -1\n", 1, "invalid header counts"),
    ("p edge 3 1\ne 1 2 3\n", 2, "malformed edge line"),
    ("p edge 3 1\n\ne 1 x\n", 3, "non-integer endpoints"),
    ("p edge 3 1\ne 1 4\n", 2, "endpoint out of range (1, 4)"),
    ("p edge 3 1\ne 0 2\n", 2, "endpoint out of range (0, 2)"),
    ("p edge 3 0\nx 1 2\n", 2, "unknown record 'x'"),
    ("c only a comment\n", 0, "missing problem line"),
    ("", 0, "missing problem line"),
])
def test_load_dimacs_names_the_bad_line(tmp_path, text, line, message):
    p = tmp_path / "bad.col"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_dimacs(p)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_dimacs_roundtrip(tmp_path):
    g = gen_gnp_graph(8, 0.4, seed=5)
    p = tmp_path / "g.col"
    p.write_text(format_dimacs(g))
    assert load_dimacs(p).edges == g.edges


def test_gen_gnp_graph_validation():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
            gen_gnp_graph(n, 0.5, seed=0)
    for p in (-0.1, 1.7, float("nan")):
        with pytest.raises(ValueError, match="edge probability"):
            gen_gnp_graph(5, p, seed=0)
    assert gen_gnp_graph(1, 0.5, seed=0).edges == frozenset()
    assert len(gen_gnp_graph(5, 1.0, seed=0).edges) == 10


def test_gen_random_spn_needs_a_positive_n():
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        gen_random_spn(0, 0)


def test_has_edge_reads_either_order():
    for i, j in ((0, 1), (1, 2)):
        assert P3.has_edge(i, j) and P3.has_edge(j, i)
    assert not P3.has_edge(0, 2) and not P3.has_edge(2, 0)


def test_max_clique_matrix_examples():
    assert np.array_equal(
        max_clique_matrix(complete_graph(3), 2.0),
        [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
    )
    empty = Graph(2, frozenset())
    assert np.array_equal(max_clique_matrix(empty, 1.0), np.zeros((2, 2)))
    b = max_clique_matrix(P3, 2.0)
    assert np.allclose(np.diag(b), 1.0)
    assert b[0, 1] == -1.0 and b[0, 2] == 1.0


def test_max_clique_matrix_refuses_a_non_finite_gamma():
    # inf would meet the adjacency's zeros as inf * 0, which numpy warns of;
    # an integer beyond the float range raised numpy's TypeError
    for gamma in (float("inf"), -float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError, match=f"^gamma must be finite, got {gamma}$"):
            max_clique_matrix(complete_graph(4), gamma)


def test_gen_planted_qp_refuses_a_non_finite_t():
    # t fills every entry of Q through t * E, so Q would be all nan or inf;
    # an integer beyond the float range raised numpy's TypeError
    for t in (float("nan"), float("inf"), -float("inf"), -10**400):
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            gen_planted_qp(4, 2, t, seed=0)


@pytest.mark.parametrize("call, what", [
    (lambda v: max_clique_matrix(P3, v), "gamma"),
    (lambda v: std_qp_matrix(np.eye(2), v), "gamma"),
    (lambda v: gen_planted_qp(3, 2, v, seed=0), "t"),
    (lambda v: gen_gnp_graph(3, v, seed=0), "edge probability p"),
], ids=["max_clique_matrix", "std_qp_matrix", "gen_planted_qp", "gen_gnp_graph"])
def test_gamma_t_and_p_refuse_a_bool_or_a_value_that_is_not_real(call, what):
    # True ran as 1, and "1" raised a TypeError from np.isfinite or from a
    # comparison, which named no value; numpy numbers are still numbers
    for value in (True, np.bool_(False), "1", None, 1j):
        msg = f"^{what} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=msg):
            call(value)
    for value in (1, np.int64(0), np.float64(0.5)):
        assert call(value) is not None


def test_gen_planted_qp_near_the_float_range():
    # a finite t is accepted, so symmetrizing Q must not overflow near it
    for t in (1e308, -1e308):
        q = gen_planted_qp(4, 2, t, seed=0).Q
        assert np.all(np.isfinite(q))
        assert np.array_equal(q, q.T)


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
    assert instances.clique_number(Graph(1, frozenset())) == 1
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            Graph(n, frozenset())
    with pytest.raises(ValueError, match="got -1"):
        complete_graph(-1)
    assert instances.clique_number(complete_graph(4), fast_cfg()) == 4
    assert instances.clique_number(P3, fast_cfg()) == 2
    tri_plus_iso = Graph(4, frozenset({(0, 1), (0, 2), (1, 2)}))
    assert instances.clique_number(tri_plus_iso, fast_cfg()) == 3


def test_clique_number_matches_brute_force():
    rng = np.random.default_rng(123)
    graphs = []
    for _ in range(6):
        n = int(rng.integers(4, 10))
        p = float(rng.uniform(0.3, 0.7))
        graphs.append(gen_gnp_graph(n, p, seed=int(rng.integers(10**6))))
    # ROADMAP item 14's set B: 20 G(n, 1/2) graphs, n = 10-16, where a
    # level's margin decides how many cells a graph takes
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(10, 17))
        graphs.append(gen_gnp_graph(n, 0.5, seed=int(rng.integers(0, 1_000_000))))
    assert max(g.n for g in graphs) == 16
    for g in graphs:
        assert instances.clique_number(g, fast_cfg()) == brute_clique_number(g), g.n


def test_clique_number_inconclusive_budget():
    g = gen_gnp_graph(8, 0.5, seed=1)
    assert instances.clique_number(g, replace(fast_cfg(), max_iterations=1)) is None


def test_clique_number_when_greedy_misses():
    # a hub joined to 6 leaves, plus a disjoint K4: a clique grown greedily by
    # degree is the hub and one leaf, the clique number is 4
    star = {(0, leaf) for leaf in range(1, 7)}
    k4 = set(itertools.combinations(range(7, 11), 2))
    g = Graph(11, frozenset(star | k4))
    assert brute_clique_number(g) == 4
    assert instances.clique_number(g, fast_cfg()) == 4


def test_clique_number_of_the_5_cycle():
    # C5 is regular, so the barycentre is a fixed point of the start's dynamics
    # and the partition alone must find the minimum 1/2 at an edge's midpoint
    c5 = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
    assert np.allclose(copositivity._replicator_start(1.0 - c5.adjacency()), 0.2)
    assert instances.clique_number(c5, fast_cfg()) == 2


def _start_matrices():
    qs = [gen_planted_qp(8, 4, -10.0, seed=seed).Q for seed in range(3)]
    qs += [gen_random_spn(6, seed)[0] - 4.0 for seed in range(3)]
    g = plant_clique(gen_gnp_graph(9, 0.4, seed=1), 4, seed=2)
    return qs + [1.0 - g.adjacency()]


def test_replicator_start_is_deterministic_and_on_the_simplex():
    for q in _start_matrices():
        x = copositivity._replicator_start(q)
        assert np.array_equal(x, copositivity._replicator_start(q.copy()))
        assert np.all(x >= 0.0)
        assert abs(float(np.sum(x)) - 1.0) <= 1e-12


def test_replicator_steps_never_raise_the_form(monkeypatch):
    # each step raises x^T B x, B = max Q + 1 - Q > 0 (Baum-Eagon), which on
    # the simplex lowers x^T Q x; the slack covers float rounding only
    for q in _start_matrices():
        values = []
        for steps in range(40):
            monkeypatch.setattr(copositivity, "_REPLICATOR_STEPS", steps)
            x = copositivity._replicator_start(q)
            values.append(float(x @ q @ x) / float(np.sum(x)) ** 2)
        slack = 1e-12 * float(np.max(np.abs(q)))
        assert all(b <= a + slack for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


def _reference_start(q, steps):
    """The replicator start as x = x * bx / (x @ bx), a new array per step."""
    b = np.max(q) / 2 - q / 2 + 0.5
    x = np.full(q.shape[0], 1.0 / q.shape[0])
    for _ in range(steps):
        bx = b @ x
        x = x * bx / (x @ bx)
    return x


def test_replicator_start_matches_the_reference_steps(monkeypatch):
    # the in-place steps must give the reference's bits, not merely its values
    qs = [gen_planted_qp(8, 4, -10.0, seed=s).Q for s in range(50)]
    qs += [1.0 - gen_gnp_graph(5 + s, 0.2 + 0.05 * s, seed=s).adjacency()
           for s in range(10)]
    for q in qs:
        assert np.array_equal(copositivity._replicator_start(q),
                              _reference_start(q, copositivity._REPLICATOR_STEPS))
    for steps in (0, 1, 7):
        monkeypatch.setattr(copositivity, "_REPLICATOR_STEPS", steps)
        for q in qs[::5]:
            assert np.array_equal(copositivity._replicator_start(q),
                                  _reference_start(q, steps))


def test_qp_bracket_contains_the_planted_optimum_exactly(monkeypatch):
    # hi is the start's value when no vertex beats it, so that value is
    # rounded up past its rounding bound (or computed exactly, where the
    # bound straddles the level).  The replicator start stays above t on
    # these draws; started at the planted minimizer itself, a float x^T Q x
    # lands a few ulps below t on 9 of them, and hi would miss t
    draws = [gen_planted_qp(8, 4, -10.0, seed) for seed in range(40)]
    for qp in draws:
        b = instances.qp_optimum(qp.Q, fast_cfg(), eta=0.1)
        assert b.converged and b.lo <= qp.t <= b.hi
    for qp in draws:
        monkeypatch.setattr(copositivity, "_replicator_start", lambda q: qp.x_star)
        b = instances.qp_optimum(qp.Q, fast_cfg(), eta=0.1)
        assert b.converged and b.lo <= qp.t <= b.hi


def test_every_partition_entry_takes_one_start_on_the_callers_matrix(monkeypatch):
    # the start is taken on the symmetrized caller's matrix, before the
    # partition scales it, so its bits do not depend on that scale
    seen = []
    start = copositivity._replicator_start

    def spy(q):
        seen.append(q.copy())
        return start(q)

    monkeypatch.setattr(copositivity, "_replicator_start", spy)
    a = 1e3 * gen_random_spn(5, 0)[0]
    q = 1e-3 * gen_planted_qp(6, 3, -5.0, seed=0).Q
    g = gen_gnp_graph(6, 0.5, seed=0)
    for run, caller in (
        (lambda: copositivity.test_copositive(a, fast_cfg()), as_sym_matrix(a)),
        (lambda: instances.qp_optimum(q, fast_cfg()), as_sym_matrix(q)),
        (lambda: instances.clique_number(g, fast_cfg()), 1.0 - g.adjacency()),
    ):
        seen.clear()
        run()
        assert len(seen) == 1 and np.array_equal(seen[0], caller)


def test_every_partition_entry_returns_the_same_stats_keys(monkeypatch):
    # the stats that README lists, and no other: each one has a reader
    keys = {"iterations", "lp_calls", "removals", "worklist", "wall_time",
            "reason", "errors"}
    runs = []
    partition = instances._partition

    def spy(*args):
        res, best = partition(*args)
        runs.append(res)
        return res, best

    monkeypatch.setattr(instances, "_partition", spy)
    instances.qp_optimum(gen_planted_qp(6, 3, -5.0, seed=0).Q, fast_cfg())
    instances.clique_number(gen_gnp_graph(6, 0.5, seed=0), fast_cfg())
    a = gen_random_spn(5, 0)[0]
    runs += [copositivity.test_copositive(b, fast_cfg()) for b in (a, -a)]
    assert [res.outcome for res in runs[2:]] == ["copositive", "not_copositive"]
    for res in runs:
        assert set(res.stats) == keys


def test_std_qp_matrix_examples():
    assert np.array_equal(std_qp_matrix(np.eye(2), 0.0), np.eye(2))
    assert np.array_equal(std_qp_matrix(np.eye(2), 0.5), [[0.5, -0.5], [-0.5, 0.5]])
    assert np.array_equal(std_qp_matrix(np.eye(2), 1.0), [[0.0, -1.0], [-1.0, 0.0]])


def test_std_qp_matrix_refuses_a_non_finite_gamma():
    # inf gave [[-inf]] and NaN a NaN matrix, with no error, and an integer
    # beyond the float range raised numpy's TypeError
    for gamma in (float("inf"), -float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError, match=f"^gamma must be finite, got {gamma}$"):
            std_qp_matrix([[1.0]], gamma)


def test_qp_optimum_identity():
    b = instances.qp_optimum(np.eye(2), fast_cfg(), eta=0.01)
    assert b.converged
    assert b.lo - 1e-9 <= 0.5 <= b.hi + 1e-9


def test_qp_optimum_rejects_eta_that_is_not_positive_and_finite():
    # a NaN or infinite eta gave an unconverged bracket instead of an error,
    # and an integer beyond the float range an OverflowError
    for eta in (0.0, -0.1, float("nan"), float("inf"), 10**400):
        msg = f"^eta must be positive and finite, got {eta}$"
        with pytest.raises(ValueError, match=msg):
            instances.qp_optimum(np.eye(2), fast_cfg(), eta=eta)
    # True ran as eta = 1 and "0.1" raised a TypeError from the comparison
    for eta in (True, "0.1"):
        msg = f"^eta must be a real number, got {re.escape(repr(eta))}$"
        with pytest.raises(ValueError, match=msg):
            instances.qp_optimum(np.eye(2), fast_cfg(), eta=eta)


def test_qp_optimum_returns_plain_floats():
    # a numpy eta made lo a np.float64 while hi was a float
    for eta in (np.float64(0.1), np.float32(0.25), 0.1):
        b = instances.qp_optimum(np.eye(2), fast_cfg(), eta=eta)
        assert type(b.lo) is float and type(b.hi) is float, eta
        assert b.lo == b.hi - float(eta)


def test_qp_optimum_zero_matrix():
    b = instances.qp_optimum(np.zeros((3, 3)), fast_cfg(), eta=0.1)
    assert b.converged
    assert b.lo - 1e-9 <= 0.0 <= b.hi + 1e-9


def test_qp_optimum_near_the_float_range():
    # max Q + 1 - Q would overflow here; the start must stay finite.  The
    # partition decides Q at max|Q| in [1, 4), so no cell LP overflows and
    # the root cell certifies the level 0 - eta
    q = np.array([[1e308, -1e308], [-1e308, 1e308]])
    b = instances.qp_optimum(q, fast_cfg(), eta=0.1)
    assert (b.lo, b.hi, b.converged) == (-0.1, 0.0, True)


def test_qp_optimum_is_sound_at_every_scale():
    # eta scales with Q, so each bracket must close the same way at every
    # scale.  Partitioned at the caller's scale, the cell tests' absolute
    # tolerances certified levels above s t at small s
    cfg = CopoConfig(max_iterations=3000)
    scales = [4.0**j for j in range(-30, 31, 10)] + [1e-8, 1e-12]
    for seed in range(10):
        qp = gen_planted_qp(8, 4, -10.0, seed=seed)
        for s in scales:
            eta = 0.1 * s
            b = instances.qp_optimum(s * qp.Q, cfg, eta=eta)
            assert b.converged, (seed, s)
            assert b.lo <= s * qp.t <= b.hi, (seed, s)
            assert b.hi - b.lo <= eta * (1 + 1e-12), (seed, s)


def test_qp_optimum_with_an_eta_beyond_the_scale_of_q():
    # at Q's scale 2^994 the level best - 1e10 would overflow; it is raised
    # to a level below every value of the form, and the root cell holds it
    qp = gen_planted_qp(8, 4, -10.0, seed=0)
    b = instances.qp_optimum(1e-300 * qp.Q, fast_cfg(), eta=1e10)
    assert (b.lo, b.converged) == (-1e10, True)
    assert 1e-300 * qp.t <= b.hi < 0.0


def test_qp_optimum_of_an_offset_qp_converges():
    # Q + c has the optimum t + c.  Through rounding the hat pair misses a
    # cell's V^T (A - l E) V by more than 1e-6 at c = 1e10; the pair is not
    # checked there, so those cells are tested rather than bisected
    cfg = CopoConfig(max_iterations=3000)
    for seed in (1, 3):
        qp = gen_planted_qp(8, 4, -10.0, seed=seed)
        for c in (1e10, 1e12):
            b = instances.qp_optimum(qp.Q + c, cfg, eta=0.001)
            assert b.converged, (seed, c)
            assert b.lo <= c + qp.t <= b.hi


def test_qp_optimum_upper_end_is_attained():
    # the minimum 1 sits at the vertex e_0; hi is that value itself
    q = np.array([[1.0, 5.0, 5.0], [5.0, 2.0, 5.0], [5.0, 5.0, 3.0]])
    b = instances.qp_optimum(q, fast_cfg(), eta=0.1)
    assert b.converged
    assert b.hi == 1.0
    assert b.lo == 0.9


def test_qp_optimum_of_a_single_variable():
    # the simplex is the point x = 1, so the minimum is Q itself
    b = instances.qp_optimum([[3.0]], fast_cfg(), eta=0.1)
    assert b.converged
    assert (b.lo, b.hi) == (2.9, 3.0)


def test_qp_optimum_validates_its_matrix_once(monkeypatch):
    calls = []

    def counted(entries):
        calls.append(1)
        return as_sym_matrix(entries)

    monkeypatch.setattr(instances, "as_sym_matrix", counted)
    monkeypatch.setattr(copositivity, "as_sym_matrix", counted)
    monkeypatch.setattr(cones, "as_sym_matrix", counted)
    q = gen_planted_qp(5, 2, -1.0, seed=0).Q
    assert instances.qp_optimum(q, fast_cfg(), eta=0.1).converged
    assert len(calls) == 1


def test_entry_points_reject_a_matrix_of_bad_shape():
    entry_points = [
        cones.membership_report,
        copositivity.test_copositive,
        lambda a: instances.qp_optimum(a, fast_cfg()),
        lambda a: std_qp_matrix(a, 0.0),
    ]
    cases = [(np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
             (np.ones(2), "expected a square matrix, got shape (2,)"),
             (np.zeros((0, 0)), "matrix dimension must be at least 1")]
    for run in entry_points:
        for a, message in cases:
            with pytest.raises(ValueError) as exc:
                run(a)
            assert str(exc.value) == message


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


def test_planted_qp_validates_support():
    with pytest.raises(ValueError):
        gen_planted_qp(4, 0, -1.0, seed=0)
    with pytest.raises(ValueError):
        gen_planted_qp(4, 5, -1.0, seed=0)


def test_plant_clique_guarantee():
    g = plant_clique(gen_gnp_graph(9, 0.2, seed=4), 5, seed=4)
    assert brute_clique_number(g) >= 5
