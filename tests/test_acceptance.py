"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Numeric tolerances and budgets are pinned here; independent-oracle values
are frozen as literals (computed with numpy.linalg.eigh + scipy.optimize
linprog outside this package, or by brute-force enumeration in-line).
"""

import itertools
import time

import numpy as np

from conekit import cones, instances
from conekit.copositivity import (
    COPOSITIVE,
    NOT_COPOSITIVE,
    CopoConfig,
)
from conekit.copositivity import test_copositive as run_copositive
from conekit.linalg import eigen_decompose

M1 = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, -3.0], [2.0, -3.0, 6.0]])
M2 = np.array([[1.0, 5.0, -2.0], [5.0, 1.0, -2.0], [-2.0, -2.0, 4.0]])


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fixture_matrices():
    started = time.monotonic()
    h1 = cones.in_H(M1)
    g1 = cones.check_membership_lp(M1, eigen_decompose(M1)[1], "G")
    h2 = cones.in_H(M2)
    # the basis of a non-orthogonal factorization M2 = P diag(1, 4, -4) P^T
    # assembled from the explicit decomposition M2 = vv^T + N, which the
    # detection LP certifies exactly
    v = np.array([1.0, 1.0, -2.0])
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    f2 = cones.check_membership_lp(M2, np.column_stack([v, u, w]), "Fpm")
    res = f2.witness_residuals(M2) if f2.is_member else {"split": np.inf, "n_min": -1}
    elapsed = time.monotonic() - started
    ok = (
        h1.is_member
        and not g1.is_member
        and not h2.is_member
        and f2.is_member
        and res["split"] <= 1e-7
        and res["n_min"] >= -1e-7
        and np.linalg.eigvalsh(f2.s_part)[0]
        >= -1e-7 * max(1.0, float(np.max(np.diag(f2.s_part))))
        and elapsed < 1.0
    )
    report(1, "fixture matrices decided with valid witnesses", ok,
           f"{elapsed:.2f}s")


def test_criterion_02_identification_rates():
    started = time.monotonic()
    n_samples = 100
    counts10 = {"H": 0, "G": 0, "Fplus": 0, "Fpm": 0}
    for seed in range(n_samples):
        a, _, _ = instances.gen_random_spn(10, seed)
        p = eigen_decompose(a)[1]
        counts10["H"] += cones.in_H(a).is_member
        for fam in ("G", "Fplus", "Fpm"):
            counts10[fam] += cones.check_membership_lp(a, p, fam).is_member
    fpm20 = 0
    for seed in range(n_samples):
        a, _, _ = instances.gen_random_spn(20, seed)
        fpm20 += cones.check_membership_lp(a, eigen_decompose(a)[1], "Fpm").is_member
    elapsed = time.monotonic() - started
    ok = (
        counts10["Fpm"] == n_samples
        and fpm20 == n_samples
        and 0.75 <= counts10["Fplus"] / n_samples <= 0.95
        and 0.70 <= counts10["H"] / n_samples <= 0.88
        and 0.13 <= counts10["G"] / n_samples <= 0.37
        and elapsed < 300.0
    )
    report(2, "identification rates on random cone samples", ok,
           f"n=10 {counts10}, n=20 Fpm {fpm20}/100, {elapsed:.1f}s")


def test_criterion_03_lp_sizes():
    ok = True
    for n in (3, 10, 50):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        p = eigen_decompose(a)[1]
        sizes = {
            "G": (n + 1, n * (n + 3) // 2),
            "Fplus": (n * (n + 1) // 2 + 1, n * (n + 1)),
            "Fpm": (n * n + 1, n * (3 * n + 1) // 2),
        }
        for fam, (nvars, nrows) in sizes.items():
            prog, _ = cones.build_lp(a, cones.sd_basis(p, fam))
            # each cap is one constraint, as the paper counts them, here the
            # y >= 0 of each omega column; beta >= 0 is not one of them
            ok = (ok and prog.n_vars == nvars
                  and prog.n_rows == n * (n + 1) // 2
                  and prog.n_rows + (prog.n_vars - 1) == nrows)
    report(3, "detection LP sizes exact for n in {3, 10, 50}", ok)


def test_criterion_04_alpha_nesting():
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 16))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        p = eigen_decompose(a)[1]
        ag = cones.check_membership_lp(a, p, "G").alpha_star
        ap = cones.check_membership_lp(a, p, "Fplus").alpha_star
        am = cones.check_membership_lp(a, p, "Fpm").alpha_star
        worst = max(worst, ag - ap, ap - am)
        ok = ok and ag <= ap + 1e-7 and ap <= am + 1e-7
    report(4, "optimal-value nesting G <= F+ <= F+- on 200 matrices", ok,
           f"worst gap {worst:.2e}")


def test_criterion_05_nonneg_and_psd_in_g():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 8))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a = a + a.T
        ok = ok and cones.check_membership_lp(a, eigen_decompose(a)[1], "G").is_member
    for _ in range(200):
        n = int(rng.integers(2, 8))
        b = rng.normal(size=(n, n))
        psd = b @ b.T
        ok = ok and cones.check_membership_lp(
            psd, eigen_decompose(psd)[1], "G"
        ).is_member
    for _ in range(100):
        b = rng.normal(size=(2, 2))
        f = rng.uniform(0.0, 1.0, size=(2, 2))
        a = b @ b.T + f + f.T
        ok = ok and cones.check_membership_lp(a, eigen_decompose(a)[1], "G").is_member
    report(5, "nonnegative, PSD, and 2x2 sum samples all G members", ok)


def test_criterion_06_copositivity_thresholds():
    started = time.monotonic()
    ok = True
    details = []
    cfg = CopoConfig(cone_family="Fpm", max_iterations=100_000)
    for n in (3, 5, 8):
        above = instances.max_clique_matrix(instances.complete_graph(n), n + 0.5)
        below = instances.max_clique_matrix(instances.complete_graph(n), n - 0.5)
        ra = run_copositive(above, cfg)
        rb = run_copositive(below, cfg)
        cert_ok = rb.certificate is not None and float(
            rb.certificate @ below @ rb.certificate
        ) < 0.0
        ok = ok and ra.outcome == COPOSITIVE and rb.outcome == NOT_COPOSITIVE
        ok = ok and cert_ok
        ok = ok and ra.stats["iterations"] <= 100_000
        ok = ok and rb.stats["iterations"] <= 100_000
        details.append(f"n={n}:{ra.stats['iterations']}/{rb.stats['iterations']}it")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120.0
    report(6, "complete-graph copositivity thresholds with certificates", ok,
           f"{' '.join(details)}, {elapsed:.1f}s")


def _brute_clique(g):
    adj = g.adjacency()
    for k in range(g.n, 1, -1):
        for sub in itertools.combinations(range(g.n), k):
            if all(adj[i, j] for i, j in itertools.combinations(sub, 2)):
                return k
    return 1


def test_criterion_07_clique_numbers():
    started = time.monotonic()
    rng = np.random.default_rng(777)
    graphs = []
    for _ in range(16):
        n = int(rng.integers(4, 11))
        graphs.append(
            instances.gen_gnp_graph(
                n, float(rng.uniform(0.3, 0.7)), seed=int(rng.integers(10**6))
            )
        )
    for n, k in ((10, 5), (12, 6)):
        base = instances.gen_gnp_graph(n, 0.3, seed=n)
        graphs.append(instances.plant_clique(base, k, seed=n))
    graphs.append(instances.complete_graph(4))
    graphs.append(instances.Graph(3, frozenset({(0, 1), (1, 2)})))
    assert len(graphs) == 20
    cfg = CopoConfig(cone_family="Fpm", max_iterations=200_000)
    ok = True
    for g in graphs:
        got = instances.clique_number(g, cfg)
        ok = ok and got == _brute_clique(g)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 600.0
    report(7, "clique numbers match brute force on 20 graphs", ok,
           f"{elapsed:.1f}s")


def test_criterion_08_planted_qp_optimum():
    started = time.monotonic()
    cfg = CopoConfig(cone_family="Fpm", max_iterations=200_000)
    hits = 0
    for seed in range(10):
        inst = instances.gen_planted_qp(10, 5, -10.0, seed=seed)
        b = instances.qp_optimum(inst.Q, cfg, eta=0.1)
        if b.converged and b.lo - 1e-9 <= -10.0 <= b.hi + 1e-9:
            hits += 1
    elapsed = time.monotonic() - started
    ok = hits == 10 and elapsed < 600.0
    report(8, "planted QP optimum bracketed for 10/10 seeds", ok,
           f"{hits}/10, {elapsed:.1f}s")


def test_criterion_09_iteration_ordering():
    good = 0
    for seed in range(10):
        a, _, _ = instances.gen_random_spn(6, seed)
        iters = {}
        for fam in ("Fpm", "Fplus", "G"):
            res = run_copositive(
                a, CopoConfig(cone_family=fam, max_iterations=200_000)
            )
            iters[fam] = (
                res.stats["iterations"] if res.outcome == COPOSITIVE else None
            )
        if (
            None not in iters.values()
            and iters["Fpm"] <= iters["Fplus"] <= iters["G"]
        ):
            good += 1
    ok = good >= 9
    report(9, "iteration ordering F+- <= F+ <= G on copositive suite", ok,
           f"{good}/10")


def test_criterion_10_l_cone():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    v = cones.in_L_bomze(a, *eigen_decompose(a))
    ok = (not v.is_member) and "infeasible" in v.note
    for n in (2, 5, 10):
        e = np.eye(n)
        ok = ok and cones.in_L_bomze(e, *eigen_decompose(e)).is_member
    report(10, "coordinate-certificate cone: infeasible and identity cases", ok)


def test_criterion_11_sd_basis_rank():
    rng = np.random.default_rng(99)
    ok = True
    for n in range(3, 21):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # B+ is F+'s basis; B- takes (q_i - q_j) / 2 for i < j, and q_i
        iu, ju = np.triu_indices(n)
        minus = (q[:, iu] + np.where(iu == ju, 1.0, -1.0) * q[:, ju]) / 2.0
        for v in (cones.sd_basis(q, "Fplus"), minus):
            vec = np.array([np.outer(v[:, k], v[:, k]).ravel()
                            for k in range(v.shape[1])])
            ok = ok and np.linalg.matrix_rank(vec) == n * (n + 1) // 2
    report(11, "semidefinite bases have full rank for n in 3..20", ok)
