import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import cones, instances, lp
from conekit.copositivity import bisect
from conekit.linalg import (
    PSD_TOL,
    congruence,
    eigen_decompose,
    is_psd_cholesky,
    unit_scale,
)

M1 = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, -3.0], [2.0, -3.0, 6.0]])
M2 = np.array([[1.0, 5.0, -2.0], [5.0, 1.0, -2.0], [-2.0, -2.0, 4.0]])

# independently computed LP optima for the fixture matrices (numpy eigh +
# scipy linprog, outside this package)
M1_ALPHA_G = -0.1806919409820697
M1_ALPHA_FPM = 0.08255096367870984
M2_ALPHA_G = -0.5
M2_ALPHA_FPM = -0.33770871866841756


def m2_hat_pair():
    """(lam, P): a non-orthogonal factorization M2 = P diag(lam) P^T assembled
    from its explicit PSD-plus-nonnegative decomposition M2 = vv^T + N."""
    v = np.array([1.0, 1.0, -2.0])
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return np.array([1.0, 4.0, -4.0]), np.column_stack([v, u, w])


def test_split_nonneg_examples():
    s, n = cones.split_nonneg(M1)
    assert np.array_equal(n, [[0, 2, 2], [2, 0, 0], [2, 0, 0]])
    assert np.array_equal(s, [[2, 0, 0], [0, 2, -3], [0, -3, 6]])
    assert np.array_equal(s + n, M1)

    d = np.diag([3.0, -1.0])
    s, n = cones.split_nonneg(d)
    assert np.array_equal(n, np.zeros((2, 2)))
    assert np.array_equal(s, d)

    s, n = cones.split_nonneg(M2)
    assert np.array_equal(n, [[0, 5, 0], [5, 0, 0], [0, 0, 0]])
    assert np.array_equal(s, [[1, 0, -2], [0, 1, -2], [-2, -2, 4]])


def test_in_h_examples():
    assert cones.in_H(M1).is_member
    assert not cones.in_H(M2).is_member
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, size=(4, 4))
    a = a + a.T
    assert cones.in_H(a).is_member  # nonnegative matrices always pass


def _basis_matrices(v):
    """The matrices E = v_k v_k^T of the columns of v, in column order."""
    return [np.outer(v[:, k], v[:, k]) for k in range(v.shape[1])]


def test_sd_basis_plus_example():
    # G's columns first, then the sums
    mats = _basis_matrices(cones.sd_basis(np.eye(2), "Fplus"))
    assert len(mats) == 3
    assert np.allclose(mats[0], [[1, 0], [0, 0]])
    assert np.allclose(mats[1], [[0, 0], [0, 1]])
    assert np.allclose(mats[2], [[0.25, 0.25], [0.25, 0.25]])


def test_sd_basis_minus_example():
    # B- is F+-'s G columns and its differences, the columns after F+'s
    mats = _basis_matrices(cones.sd_basis(np.eye(2), "Fpm"))
    assert len(mats) == 4
    assert np.allclose(mats[0], [[1, 0], [0, 0]])
    assert np.allclose(mats[1], [[0, 0], [0, 1]])
    assert np.allclose(mats[3], [[0.25, -0.25], [-0.25, 0.25]])


def test_sd_basis_elements_are_psd_rank_one():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    for family in cones.LP_FAMILIES:
        for m in _basis_matrices(cones.sd_basis(q, family)):
            assert np.allclose(m, m.T)
            assert is_psd_cholesky(m)
            assert np.linalg.matrix_rank(m, tol=1e-9) <= 1


def _reference_bases(p):
    """The basis vectors sd_basis should give for G, Fplus and Fpm, from the
    formulas: G's p_i, gathered as every family's are, then the sums
    (p_i + p_j) / 2 over i < j in np.triu_indices order, then the
    differences (p_i - p_j) / 2; each family is a column prefix of the next."""
    n = p.shape[0]
    iu, ju = np.triu_indices(n, 1)
    g = p[:, np.arange(n)]
    plus = np.column_stack([g, (p[:, iu] + p[:, ju]) / 2.0])
    return {"G": g, "Fplus": plus, "Fpm": np.column_stack([plus, (p[:, iu] - p[:, ju]) / 2.0])}


def _family_bases(p):
    """The semidefinite basis matrices of each LP family, in variable order."""
    return {family: _basis_matrices(v) for family, v in _reference_bases(p).items()}


def test_build_lp_pair_rows_are_the_sd_basis():
    rng = np.random.default_rng(12)
    for n in (2, 3, 6):
        p = rng.normal(size=(n, n))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        for basis in (p, eigen_decompose(a)[1]):
            iu, ju = np.triu_indices(n)
            for family, mats in _family_bases(basis).items():
                prog, alpha0 = cones.build_lp(a, cones.sd_basis(basis, family))
                k = len(mats)
                assert prog.n_vars == k + 1
                pairs = np.column_stack([m[iu, ju] for m in mats])
                assert np.array_equal(prog.A[:, :k], pairs)
                assert np.all(prog.A[:, k] == 1.0)
                assert np.array_equal(prog.c, np.append(np.zeros(k), 1.0))
                # the rhs is A's own upper triangle, whatever the pair, measured
                # from alpha0, its least entry, so b >= 0 exactly
                assert alpha0 == np.min(a[iu, ju])
                assert np.array_equal(prog.b, a[iu, ju] - alpha0)
                assert np.min(prog.b) == 0.0


def test_lp_layout_matches_the_sd_basis():
    # the cached index table and the preallocated LP give the bits of the
    # formulas' composition and of column_stack/vstack, sd_basis's columns
    # F-ordered and the LP's rows C-ordered
    rng = np.random.default_rng(23)
    for n in range(1, 17):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        p = eigen_decompose(a)[1]
        iu, ju = np.triu_indices(n)
        alpha0 = float(np.min(a[iu, ju]))
        for basis in (p, np.ascontiguousarray(rng.normal(size=(n, n)))):
            refs = _reference_bases(basis)
            for family, ref in refs.items():
                vectors = cones.sd_basis(basis, family)
                assert np.array_equal(vectors, ref)
                assert vectors.flags.f_contiguous
            # G <= Fplus <= Fpm by construction: G's columns and Fplus's
            # first n are p's, and Fpm's first n(n+1)/2 columns are
            # Fplus's, bit for bit
            assert np.array_equal(cones.sd_basis(basis, "G"), basis)
            plus = cones.sd_basis(basis, "Fplus")
            assert np.array_equal(plus[:, :n], basis)
            assert np.array_equal(cones.sd_basis(basis, "Fpm")[:, :iu.size], plus)
            for family in cones.LP_FAMILIES:
                ref = refs[family]
                c = np.append(np.zeros(ref.shape[1]), 1.0)
                lhs = np.column_stack([ref[iu] * ref[ju], np.ones(iu.size)])
                b = a[iu, ju] - alpha0
                for capped in (False, True):
                    if capped:
                        lhs, b = np.vstack([lhs, c]), np.append(b, max(0.0, -alpha0))
                    prog, floor = cones.build_lp(
                        a, cones.sd_basis(basis, family), capped=capped
                    )
                    assert np.array_equal(prog.A, lhs) and prog.A.flags.c_contiguous
                    assert np.array_equal(prog.b, b) and np.array_equal(prog.c, c)
                    assert floor == alpha0
    for family in ("F+", "minus"):
        with pytest.raises(ValueError, match="unknown LP family"):
            cones.sd_basis(p, family)


def test_build_lp_gives_one_lp_for_every_memory_order_of_its_vectors():
    # build_lp multiplies the rows of a C-contiguous copy of the vectors:
    # sd_basis's F-ordered columns, a C copy and a strided view give the
    # same A, b and alpha0, bit for bit
    rng = np.random.default_rng(31)
    for n in (2, 5, 8, 16):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        vectors = cones.sd_basis(eigen_decompose(a)[1], "Fpm")
        wide = np.full((2 * n, 3 * vectors.shape[1]), np.nan)
        wide[::2, ::3] = vectors
        layouts = [vectors, np.ascontiguousarray(vectors), wide[::2, ::3]]
        assert vectors.flags.f_contiguous and layouts[1].flags.c_contiguous
        assert not (layouts[2].flags.c_contiguous or layouts[2].flags.f_contiguous)
        for capped in (False, True):
            (ref, floor), *others = [cones.build_lp(a, v, capped=capped) for v in layouts]
            for prog, alpha0 in others:
                assert prog.A.tobytes() == ref.A.tobytes()
                assert prog.b.tobytes() == ref.b.tobytes()
                assert alpha0 == floor


def _paper_lp_alpha(optimize, lam, p, family):
    """alpha* of the paper's unshifted detection LP, solved by HiGHS:
    max alpha  s.t.  sum_k omega_k E_k >= alpha entrywise (i <= j),
    omega_k <= lambda_i on the (i, i) terms and <= 0 on the rest."""
    n = p.shape[0]
    mats = _family_bases(p)[family]
    iu, ju = np.triu_indices(n)
    caps = np.zeros(len(mats))
    caps[:n] = lam  # every family's first n elements are G's p_i p_i^T
    rows = np.column_stack([m[iu, ju] for m in mats] + [-np.ones(iu.size)])
    ref = optimize.linprog(
        np.append(np.zeros(len(mats)), -1.0),
        A_ub=-rows,
        b_ub=np.zeros(iu.size),
        bounds=[(None, c) for c in caps] + [(None, None)],
        method="highs",
    )
    assert ref.status == 0, ref.message
    return -ref.fun


def test_detection_lp_alpha_matches_highs(monkeypatch):
    # 288 LPs: n = 3..8, 12 and 16, six matrices each (half of them PSD + N
    # members), the three families on the orthogonal pair and on a hat pair
    # (P = V^T eigvecs for V^T A V); at n = 12 and 16 (78 and 136 rows) the
    # simplex defers its basis updates, and with the refactorization interval
    # at 100 some n = 16 LPs pass a refactorization
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(4242)
    checked = refactorized = 0
    for n in (*range(3, 9), 12, 16):
        for k in range(6):
            a = rng.normal(size=(n, n))
            a = instances.gen_random_spn(n, k)[0] if k % 2 else (a + a.T) / 2
            lam, p = eigen_decompose(a)
            v = rng.uniform(0.0, 1.0, size=(n, n)) + np.eye(n)
            for mat, basis in ((a, p), (v.T @ a @ v, v.T @ p)):
                mat = (mat + mat.T) / 2
                for family in cones.LP_FAMILIES:
                    verdict = cones.check_membership_lp(mat, basis, family)
                    ref = _paper_lp_alpha(optimize, lam, basis, family)
                    assert abs(verdict.alpha_star - ref) <= 1e-7 * max(1.0, abs(ref))
                    checked += 1
                    if n == 16:
                        vectors = cones.sd_basis(basis, family)
                        with monkeypatch.context() as patched:
                            patched.setattr(lp, "_REFACTOR_EVERY", 100)
                            sol = lp.solve(cones.build_lp(mat, vectors)[0])
                        refactorized += sol.refactorizations > 0
    assert checked == 288
    assert refactorized > 0


def test_n_part_is_the_weighted_basis_sum():
    # PSD inputs are members of every LP family (S = A, N = 0 is feasible);
    # S is the y-weighted basis sum and N the rest of A
    rng = np.random.default_rng(13)
    for n in (3, 5, 8):
        b = rng.normal(size=(n, n))
        a = b @ b.T
        p = eigen_decompose(a)[1]
        for family, mats in _family_bases(p).items():
            v = cones.check_membership_lp(a, p, family)
            assert v.is_member
            prog, _ = cones.build_lp(a, cones.sd_basis(p, family))
            y = lp.solve(prog).x[: len(mats)]
            expect = sum(w * m for w, m in zip(y, mats))
            scale = max(1.0, float(np.max(np.abs(expect))))
            assert np.max(np.abs(v.s_part - expect)) <= 1e-12 * scale
            assert np.array_equal(v.n_part, a - v.s_part)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), spn=st.booleans(),
       flips=st.lists(st.booleans(), min_size=8, max_size=8))
def test_g_and_fpm_do_not_depend_on_the_eigenvector_signs(n, seed, spn, flips):
    # G's elements p_i p_i^T do not see a sign, and flipping p_j swaps F+-'s
    # p_i + p_j and p_i - p_j columns, so any subset of flipped columns keeps
    # alpha* and the verdict (F+ does not: see the next test)
    a = instances.gen_random_spn(n, seed)[0] if spn else (
        np.random.default_rng(seed).normal(size=(n, n)))
    a = (a + a.T) / 2
    p = eigen_decompose(a)[1]
    flipped = p * np.where(flips[:n], -1.0, 1.0)
    for family in ("G", "Fpm"):
        v, w = (cones.check_membership_lp(a, basis, family) for basis in (p, flipped))
        assert v.status == w.status
        assert abs(v.alpha_star - w.alpha_star) <= 1e-9 * np.max(np.abs(a))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       order=st.permutations(range(8)))
def test_verdicts_do_not_depend_on_the_order_of_the_rows(n, seed, order):
    # a joint row-and-column permutation Q A Q^T leaves N, DD and H as they
    # are, and moves the rows of G's and F+-'s eigenvectors, so their LPs
    # keep alpha*; F+ is left out, since its verdict sees the signs
    a = instances.gen_random_spn(n, seed)[0]
    perm = [i for i in order if i < n]
    b = a[np.ix_(perm, perm)]
    for cone in ("N", "DD", "H", "G", "Fpm"):
        v, w = (cones.membership_report(m, [cone])[0] for m in (a, b))
        assert v.status == w.status, cone
        if cone in ("G", "Fpm"):
            assert abs(v.alpha_star - w.alpha_star) <= 1e-9 * np.max(np.abs(a))


def test_fplus_depends_on_the_eigenvector_signs():
    # at n = 2, F+ with one eigenvector flipped pairs p_0 - p_1 in place of
    # p_0 + p_1: one sign gives G's alpha*, the other F+-'s.  That is why
    # eigen_decompose fixes each sign, so that one input gets one answer
    a = np.array([[2.0, -1.0], [-1.0, 6.0]])
    p = eigen_decompose(a)[1]
    alphas = sorted(
        cones.check_membership_lp(a, p * s, "Fplus").alpha_star
        for s in ([1.0, 1.0], [1.0, -1.0])
    )
    g, fpm = (cones.check_membership_lp(a, p, f).alpha_star for f in ("G", "Fpm"))
    assert alphas == pytest.approx([g, fpm], abs=1e-12)
    assert fpm - g > 0.4


def test_membership_diag_nonneg_is_g_member():
    a = np.diag([1.0, 2.0])
    v = cones.check_membership_lp(a, eigen_decompose(a)[1], "G")
    assert v.is_member
    assert v.alpha_star >= 0.0


def test_m1_g_not_identified():
    v = cones.check_membership_lp(M1, eigen_decompose(M1)[1], "G")
    assert not v.is_member
    assert v.alpha_star == pytest.approx(M1_ALPHA_G, abs=1e-6)


def test_m1_fpm_member_with_witness():
    v = cones.check_membership_lp(M1, eigen_decompose(M1)[1], "Fpm")
    assert v.is_member
    assert v.alpha_star == pytest.approx(M1_ALPHA_FPM, abs=1e-6)
    res = v.witness_residuals(M1)
    assert res["split"] <= 1e-7
    assert res["n_min"] >= -1e-9
    assert res["s_min"] >= -1e-12
    assert is_psd_cholesky(v.s_part)
    # the residuals are relative to max|A|, at any scale; N's floor scales
    tiny = 2.0**-40 * M1
    full = cones.membership_report(M1, ["Fpm"])[0].witness_residuals(M1)
    res = cones.membership_report(tiny, ["Fpm"])[0].witness_residuals(tiny)
    assert res == {**full, "n_min": 2.0**-40 * full["n_min"]}


def test_not_identified_verdict_has_no_witness_residuals():
    v = cones.check_membership_lp(M1, eigen_decompose(M1)[1], "G")
    assert not v.is_member and v.witness_residuals(M1) == {}


def test_m2_orthogonal_pair_values():
    p = eigen_decompose(M2)[1]
    g = cones.check_membership_lp(M2, p, "G")
    assert not g.is_member
    assert g.alpha_star == pytest.approx(M2_ALPHA_G, abs=1e-6)
    f = cones.check_membership_lp(M2, p, "Fpm")
    assert not f.is_member
    assert f.alpha_star == pytest.approx(M2_ALPHA_FPM, abs=1e-6)


def test_m2_hat_pair_fpm_member():
    lam, p = m2_hat_pair()
    assert np.max(np.abs((p * lam) @ p.T - M2)) <= 1e-12 * np.max(np.abs(M2))
    v = cones.check_membership_lp(M2, p, "Fpm")  # the basis alone
    assert v.is_member
    assert v.cone == "Fpm"  # any pair gives a sound witness, and one name
    res = v.witness_residuals(M2)
    assert res["split"] <= 1e-7
    assert res["n_min"] >= -1e-9
    assert res["s_min"] >= -1e-12
    assert is_psd_cholesky(v.s_part)


def test_alpha_star_nesting():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        p = eigen_decompose(a)[1]
        verdicts = {
            fam: cones.check_membership_lp(a, p, fam) for fam in ("G", "Fplus", "Fpm")
        }
        alphas = {fam: v.alpha_star for fam, v in verdicts.items()}
        # every member's witness passes a check that does not trust the LP
        scale = float(np.max(np.abs(a)))
        for v in verdicts.values():
            if v.is_member:
                assert np.array_equal(v.s_part, v.s_part.T)
                assert np.array_equal(v.n_part, v.n_part.T)
                assert np.min(np.linalg.eigvalsh(v.s_part)) >= -1e-12 * scale
                assert np.min(v.n_part) >= v.alpha_star - 1e-9 * scale
        assert alphas["G"] <= alphas["Fplus"] + 1e-7
        assert alphas["Fplus"] <= alphas["Fpm"] + 1e-7


def test_alpha_star_upper_bound():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        p = eigen_decompose(a)[1]
        for fam in ("G", "Fplus", "Fpm"):
            alpha = cones.check_membership_lp(a, p, fam).alpha_star
            assert alpha <= float(np.min(np.diag(a))) + 1e-7


def test_nonneg_and_psd_are_g_members():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a = a + a.T
        assert cones.check_membership_lp(a, eigen_decompose(a)[1], "G").is_member
        b = rng.normal(size=(n, n))
        psd = b @ b.T
        v = cones.check_membership_lp(psd, eigen_decompose(psd)[1], "G")
        assert v.is_member
        assert v.alpha_star >= -1e-9


def test_two_by_two_sum_always_g_member():
    rng = np.random.default_rng(30)
    for _ in range(100):
        b = rng.normal(size=(2, 2))
        s = b @ b.T
        f = rng.uniform(0.0, 1.0, size=(2, 2))
        a = s + f + f.T
        assert cones.check_membership_lp(a, eigen_decompose(a)[1], "G").is_member


def test_conic_closure_of_witnesses():
    rng = np.random.default_rng(33)
    b = rng.normal(size=(4, 4))
    a = b @ b.T + rng.uniform(0.0, 1.0, size=(4, 4)) + np.eye(4)
    a = (a + a.T) / 2
    v = cones.check_membership_lp(a, eigen_decompose(a)[1], "Fpm")
    assert v.is_member
    for c in (0.5, 3.0):
        s_scaled, n_scaled = c * v.s_part, c * v.n_part
        scale = max(1.0, float(np.max(np.abs(c * a))))
        assert np.max(np.abs(s_scaled + n_scaled - c * a)) <= 1e-7 * scale
        assert is_psd_cholesky(s_scaled)
        assert np.min(n_scaled) >= -1e-9


def test_witness_is_sound_for_a_pair_inside_the_tolerance():
    # a pair with every lambda moved by 4e-7 max|A| is off A by up to 1e-6
    # max|A|, as a pair built from rounded data can be; the LP reads only P,
    # S = R R^T is built from the LP's y alone, so it stays PSD, and N is the
    # rest of A bit for bit
    members = 0
    for seed in range(20):
        a = instances.gen_random_spn(8, seed)[0]
        scale = float(np.max(np.abs(a)))
        lam, p = eigen_decompose(a)
        assert np.all(np.diff(lam) <= 0.0)
        assert np.max(np.abs(p.T @ p - np.eye(8))) <= 1e-12
        for sign in (1.0, -1.0):
            moved = lam + sign * 4e-7 * scale
            assert np.max(np.abs((p * moved) @ p.T - a)) <= 1e-6 * scale
        for family in cones.LP_FAMILIES:
            v = cones.check_membership_lp(a, p, family)
            if v.is_member:
                members += 1
                assert np.min(np.linalg.eigvalsh(v.s_part)) >= -1e-12 * scale
                assert np.array_equal(v.n_part, a - v.s_part)
    assert members > 0


def test_check_membership_rejects_unknown_cone_before_any_work(monkeypatch):
    # "F+-" is the CLI's flag, not a library name: the entry point rejects
    # it with one message before it validates or decomposes A
    calls = []
    monkeypatch.setattr(cones, "as_sym_matrix", calls.append)
    monkeypatch.setattr(cones, "eigen_decompose", calls.append)
    for name in ("F+-", "Fminus"):
        with pytest.raises(ValueError) as exc:
            cones.membership_report(M1, cones=[name])
        assert str(exc.value) == f"unknown cones: {[name]}"
        with pytest.raises(ValueError, match="unknown cones"):
            cones.membership_report(M1, cones=["H", name])
    assert calls == []


def test_membership_report_rejects_a_string_of_cones():
    # a string would be read letter by letter: "H" would pass by accident
    for name in ("Fpm", "DD", "H"):
        with pytest.raises(ValueError) as exc:
            cones.membership_report(M2, name)
        assert str(exc.value) == f"cones must be a list of cone names, got {name!r}"
    # any other iterable of names is read once, a generator too
    picked = cones.membership_report(M2, (c for c in ("H", "N")))
    assert [v.cone for v in picked] == ["N", "H"]


def test_lp_iteration_limit_is_not_member(monkeypatch):
    monkeypatch.setattr(lp, "_PIVOTS_PER_SIZE", 0)  # a budget of no pivot
    v = cones.check_membership_lp(M1, eigen_decompose(M1)[1], "Fpm")
    assert not v.is_member
    assert v.note == "lp-iteration_limit"


def test_fpm_lp_pivot_budget():
    # the F+- LP at n = 20 (210 rows, 401 variables): steepest-edge pricing
    # takes 319-492 pivots on these draws, Dantzig pricing 1839-2524
    for seed in range(3):
        a = instances.gen_random_spn(20, seed)[0]
        prog, _ = cones.build_lp(a, cones.sd_basis(eigen_decompose(a)[1], "Fpm"))
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        assert sol.iterations <= 800


def test_detection_lps_report_their_pivot_counts(monkeypatch):
    # an interval below the F+- LP's length, so the count is exercised
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 100)
    a = instances.gen_random_spn(16, 3)[0]
    p = eigen_decompose(a)[1]
    long_runs = 0
    for family in cones.LP_FAMILIES:
        sol = lp.solve(cones.build_lp(a, cones.sd_basis(p, family))[0])
        assert sol.status == lp.OPTIMAL
        assert sol.bland_pivots == 0
        # one refactorization per _REFACTOR_EVERY pivots, plus at most the refine
        base = sol.iterations // lp._REFACTOR_EVERY
        assert base <= sol.refactorizations <= base + 1
        long_runs += base > 0
    assert long_runs > 0


def _partition_cells(a, level, depth):
    """(V^T A V - level, inherited basis or None) for every cell that
    bisecting the simplex reaches within depth, as copositivity._partition
    poses its cell tests, each with the basis its parent's F+- test hands
    down."""
    cells, out = [(np.eye(len(a)), None)], []
    for _ in range(depth + 1):
        children = []
        for v, inherited in cells:
            out.append((congruence(a, v) - level, inherited))
            children += bisect(v, cones._cell_test(out[-1][0], "Fpm", inherited)[1])
        cells = children
    return out


def test_capped_lp_keeps_the_verdict_on_partition_cells(monkeypatch):
    # the cap row beta <= max(0, -alpha0) stops the LP once alpha reaches 0:
    # the same verdict, min(alpha*, max(alpha0, 0)) as alpha, no more pivots
    pivots = []
    solve = lp.solve

    def counted(prog, **kwargs):
        sol = solve(prog, **kwargs)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(lp, "solve", counted)
    cells = []
    for seed in range(3):
        cells += _partition_cells(instances.gen_random_spn(6, seed)[0], 0.0, 2)
    for seed in range(2):
        qp = instances.gen_planted_qp(8, 4, -10.0, seed)
        cells += _partition_cells(qp.Q, qp.t - 0.1, 2)  # qp_optimum's level
        g = instances.gen_gnp_graph(7, 0.5, seed)
        omega = instances.clique_number(g)
        cells += _partition_cells(1.0 - g.adjacency(), 1.0 / (omega + 0.5), 2)
    assert any(inherited is not None for _, inherited in cells)
    seen = set()
    for a, inherited in cells:
        n, scale = len(a), max(1.0, float(np.max(np.abs(a))))
        bases = [] if inherited is None else [inherited]
        for basis in [eigen_decompose(a)[1], *bases]:
            for family in cones.LP_FAMILIES:
                full = cones.check_membership_lp(a, basis, family)
                capped = cones._lp_families(a, [basis], [family], True)[0][0]
                assert capped.is_member == full.is_member
                assert capped.cone == full.cone
                assert pivots[-1] <= pivots[-2]
                prog, alpha0 = cones.build_lp(
                    a, cones.sd_basis(basis, family), capped=True
                )
                cap = max(alpha0, 0.0)
                assert abs(capped.alpha_star - min(full.alpha_star, cap)) <= 1e-12 * scale
                assert prog.n_rows == n * (n + 1) // 2 + 1
                assert prog.A[-1].tolist() == prog.c.tolist() == [0.0] * (prog.n_vars - 1) + [1.0]
                assert prog.b[-1] == max(0.0, -alpha0)
                seen.add(full.is_member)
    assert seen == {True, False}
    # an entrywise nonnegative cell is certified at its alpha0 in one pivot
    a = instances.gen_random_spn(5, 0)[2] + 0.25
    for family in cones.LP_FAMILIES:
        v = cones._lp_families(a, [eigen_decompose(a)[1]], [family], True)[0][0]
        assert v.is_member and pivots[-1] <= 1
        assert abs(v.alpha_star - float(np.min(a))) <= 1e-12


def test_psd_split_examples():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(3, 3))
    psd = b @ b.T
    a_plus, a_minus = cones.psd_split(psd, *eigen_decompose(psd))
    assert np.allclose(a_plus, psd, atol=1e-9)
    assert np.allclose(a_minus, 0.0, atol=1e-9)

    d = np.diag([1.0, -2.0])
    a_plus, a_minus = cones.psd_split(d, *eigen_decompose(d))
    assert np.allclose(a_plus, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(a_minus, np.diag([0.0, 2.0]), atol=1e-12)

    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    a_plus, _ = cones.psd_split(a, *eigen_decompose(a))
    assert np.allclose(a_plus, a, atol=1e-9)


def test_in_l_examples():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    v = cones.in_L_bomze(a, *eigen_decompose(a))
    assert not v.is_member
    assert "infeasible" in v.note

    for n in (2, 5, 10):
        e = np.eye(n)
        assert cones.in_L_bomze(e, *eigen_decompose(e)).is_member

    b = 2.0 * np.ones((2, 2))
    assert cones.in_L_bomze(b, *eigen_decompose(b)).is_member

    # A_plus = diag(1, 0) has a zero row, so no x has A_plus x >= e: the
    # dual LP is unbounded
    d = np.diag([1.0, -1.0])
    v = cones.in_L_bomze(d, *eigen_decompose(d))
    assert v.status == cones.NOT_IDENTIFIED
    assert "infeasible" in v.note


def test_membership_report_decomposes_once_for_lp_and_l_tests(monkeypatch):
    # the L test clips the eigenvalues of the report's own (lam, P),
    # so its verdict is bitwise the one it reaches on a fresh decomposition
    calls = []

    def counted(a):
        calls.append(a)
        return eigen_decompose(a)

    monkeypatch.setattr(cones, "eigen_decompose", counted)
    rng = np.random.default_rng(3)
    notes = set()
    for k in range(6):
        b = rng.normal(size=(5, 5))
        a = (b + b.T) / 2 + k * np.eye(5)  # every outcome of the L test
        for selection in (cones.CONE_ORDER, ("L",)):
            calls.clear()
            l_test = cones.membership_report(a, cones=selection)[-1]
            assert len(calls) == 1
            assert l_test.cone == "L"
            alone = cones.in_L_bomze(a, *eigen_decompose(a))
            assert (l_test.status, l_test.note) == (alone.status, alone.note)
            notes.add(alone.note)
    assert len(notes) == 3


def test_pair_indices_are_cached_and_read_only():
    table = cones._sd_index(7)
    assert cones._sd_index(7) is table
    iu, ju = table[3]  # build_lp's pair rows
    expect = np.triu_indices(7)
    assert np.array_equal(iu, expect[0]) and np.array_equal(ju, expect[1])
    with pytest.raises(ValueError):
        iu[0] = 1
    for column in (*table[:3], ju):
        with pytest.raises(ValueError):
            column[0] = 1
    # sd_basis gathers through the same cached table
    hits = cones._sd_index.cache_info().hits
    cones.sd_basis(np.eye(7), "Fplus")
    assert cones._sd_index.cache_info().hits == hits + 1


def test_every_lp_family_is_a_column_prefix_of_fpm(monkeypatch):
    # G's and F+'s basis vectors are F+-'s first n and n(n+1)/2, bit for
    # bit, so a report's staged solve frees each wider family as one block
    # after the columns before it: F+'s sums, then F+-'s differences
    posed, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog, **k: posed.append((prog, k)) or solve(prog, **k))
    rng = np.random.default_rng(57)
    for n in (1, 2, 5):
        p = rng.normal(size=(n, n))
        fpm = cones.sd_basis(p, "Fpm")
        for family, w in (("G", n), ("Fplus", n * (n + 1) // 2)):
            prefix = cones.sd_basis(p, family)
            assert prefix.shape == (n, w) and prefix.tobytes() == fpm[:, :w].tobytes()
        a = rng.normal(size=(n, n))
        posed.clear()
        cones.membership_report(a + a.T)
        prog, kwargs = next((prog, k) for prog, k in posed if "held" in k)
        blocks = [np.arange(prog.n_vars)[h].tolist() for h in kwargs["held"]]
        assert blocks == [list(range(n, n * (n + 1) // 2)), list(range(n * (n + 1) // 2, n * n))]


def test_diag_dominance_examples():
    assert cones.is_diagonally_dominant(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert not cones.is_diagonally_dominant(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert cones.is_diagonally_dominant(np.eye(4))


def test_membership_report_m1():
    verdicts = cones.membership_report(M1, cones=("H", "G"))
    assert [v.cone for v in verdicts] == ["H", "G"]
    assert verdicts[0].is_member
    assert not verdicts[1].is_member


def test_membership_report_all_ones():
    verdicts = cones.membership_report(np.ones((3, 3)), cones=("N",))
    assert verdicts[0].is_member


def test_membership_report_rejects_unknown_cone():
    with pytest.raises(ValueError):
        cones.membership_report(M1, cones=("XX",))


def test_membership_report_canonical_order():
    verdicts = cones.membership_report(M1, cones=("L", "N", "H"))
    assert [v.cone for v in verdicts] == ["N", "H", "L"]


def test_membership_report_gives_one_verdict_per_distinct_name():
    verdicts = cones.membership_report(M1, cones=["N", "H", "N"])
    assert [v.cone for v in verdicts] == ["N", "H"]


def test_membership_report_records_numerical_errors_only(monkeypatch):
    solve = lp.solve

    def fail_with(exc_type, detection_only=False):
        def fail(*args, **kwargs):
            if detection_only and "held" not in kwargs:  # the L solve
                return solve(*args, **kwargs)
            raise exc_type("injected")

        return fail

    def failed(verdicts):
        out = [v for v in verdicts if v.note == "error: injected"]
        assert all(v.status == cones.NOT_IDENTIFIED for v in out)
        return [v.cone for v in out]

    # a one-cone report keeps the one rule too; the one simplex that the
    # report shares between G, F+ and F+- fails for all three, and L alone
    alone = lambda a: [cones.membership_report(a, [c])[0] for c in cones.LP_FAMILIES]
    for exc_type in (FloatingPointError, ValueError):
        with monkeypatch.context() as patched:
            patched.setattr(lp, "solve", fail_with(exc_type))
            assert failed(cones.membership_report(M1)) == [*cones.LP_FAMILIES, "L"]
            patched.setattr(lp, "solve", fail_with(exc_type, detection_only=True))
            assert failed(alone(M1)) == list(cones.LP_FAMILIES)
            assert failed(cones.membership_report(M1)) == list(cones.LP_FAMILIES)
            assert failed(cones.membership_report(M1, ["G", "Fpm"])) == ["G", "Fpm"]
            assert failed(cones.membership_report(M1, ["G", "L"])) == ["G"]
    # a TypeError is a bug in the program, not a verdict
    monkeypatch.setattr(lp, "solve", fail_with(TypeError, detection_only=True))
    for wanted in (cones.CONE_ORDER, ["Fpm", "Fplus"], ["G"]):
        with pytest.raises(TypeError, match="injected"):
            cones.membership_report(M1, wanted)


def _fields(v):
    """A verdict's fields, arrays as bytes, for bit-for-bit comparison."""
    parts = [None if p is None else p.tobytes() for p in (v.s_part, v.n_part)]
    return (v.status, v.cone, v.alpha_star, v.note, *parts)


def test_one_family_alone_is_its_own_capped_lp():
    # one family over A's own eigenbasis is the report's one-cone LP, bit
    # for bit: u is already unit-scaled, so the report decides it unscaled
    members = 0
    for seed in range(6):
        u = unit_scale(instances.gen_random_spn(6, seed)[0])[0]
        p = eigen_decompose(u)[1]
        for family in cones.LP_FAMILIES:
            (v,), _ = cones._lp_families(u, [p], [family], True)
            assert _fields(v) == _fields(cones.membership_report(u, [family])[0])
            if v.is_member:
                members += 1
                assert np.min(v.n_part) >= v.alpha_star - 1e-12, (seed, family)
    assert members == 10


def test_report_solves_fplus_and_fpm_in_one_simplex(monkeypatch):
    # G, F+ and F+- are the stages of one capped simplex: G and L keep their
    # one-cone verdicts bit for bit, and F+ and F+- are continuations,
    # within 1e-12 of one-cone reports
    solves, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda *a, **k: solves.append(k) or solve(*a, **k))
    for seed in range(4):
        a = instances.gen_random_spn(12, seed)[0]
        solves.clear()
        report = {v.cone: v for v in cones.membership_report(a)}
        assert len(solves) == 2 and sum("held" in k for k in solves) == 1
        for cone in ("G", "L"):
            (alone,) = cones.membership_report(a, [cone])
            assert _fields(report[cone]) == _fields(alone)
        prog, alpha0 = cones.build_lp(a, cones.sd_basis(eigen_decompose(a)[1], "Fpm"), capped=True)
        sol = solve(prog, held=[slice(12, 78), slice(78, 144)])  # F+'s sums, F+-'s differences
        assert [report[f].alpha_star for f in cones.LP_FAMILIES] == [
            alpha0 + s.objective_value for s in sol.stages]
        for cone in ("Fplus", "Fpm"):
            (alone,) = cones.membership_report(a, [cone])
            assert report[cone].status == alone.status
            assert abs(report[cone].alpha_star - alone.alpha_star) <= 1e-12


def test_a_g_member_at_the_cap_decides_fplus_and_fpm(monkeypatch):
    # detect's catalogue matrix 14: the G stage ends at the cap, so the
    # staged solve ends there, after G's 71 pivots (166 when F+ and F+-
    # went on to climb the rhs jitter's band), and F+ and F+- are members
    # with G's witness and alpha*
    solves, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda *a, **k: solves.append(s := solve(*a, **k)) or s)
    a = instances.gen_random_spn(16, np.random.SeedSequence([0, 14]))[0]
    g, fplus, fpm = cones.membership_report(a, cones.LP_FAMILIES)
    (sol,) = solves
    assert [s.iterations for s in sol.stages] == [71, 71, 71]
    assert g.is_member and abs(g.alpha_star) <= 1e-12
    for v in (fplus, fpm):
        assert v.is_member and v.alpha_star == g.alpha_star
        assert np.array_equal(v.s_part, g.s_part) and np.array_equal(v.n_part, g.n_part)


T = np.array([[1.0, -2.0], [-2.0, 1.0]])  # x = (1/2, 1/2) gives -1/2


def test_no_scale_of_a_non_copositive_matrix_is_a_member():
    # at 1e-10 the absolute tolerances made T a member of H, G, F+ and F+-
    for s in (1e-300, 1e-10, 1e10, 1e300):
        verdicts = cones.membership_report(s * T)
        assert not any(v.is_member for v in verdicts), s


def test_verdicts_do_not_depend_on_a_power_of_two_scale():
    # the entry points decide 2^k A and A at the same scale: an even k
    # keeps every bit, an odd one moves S and N by rounding in sqrt(y)
    for seed in range(6):
        a = instances.gen_random_spn(8, seed)[0]
        base = cones.membership_report(a)
        for k in [*range(-60, 61, 7), -1, 1]:
            ak = np.ldexp(a, k)
            for v0, v in zip(base, cones.membership_report(ak)):
                assert (v.status, v.note) == (v0.status, v0.note), (seed, k, v.cone)
                if v0.alpha_star is not None:
                    assert v.alpha_star == np.ldexp(v0.alpha_star, k)
                if v0.s_part is None:
                    continue
                for p0, p in ((v0.s_part, v.s_part), (v0.n_part, v.n_part)):
                    if k % 2 == 0:
                        assert np.array_equal(p, np.ldexp(p0, k))
                    else:
                        dev = np.max(np.abs(p - np.ldexp(p0, k)))
                        assert dev <= 1e-15 * np.max(np.abs(ak))


def _dad(a, k):
    """D A D for D = diag(2^k), exact away from under- and overflow."""
    return np.ldexp(np.ldexp(a, k[:, None]), k[None, :])


def _diagonal_scaling_draws(count):
    """(A, k): gen_random_spn(n) for n = 3-7, every other one moved along -E
    to between halfway and all the way to its F+- floor, so that its N part
    ends near 0, and k in [-6, 6].  The floor is the uncapped LP's alpha*,
    taken at unit scale as membership_report decides A, and mapped back."""
    rng = np.random.default_rng(16)
    for i in range(count):
        n = int(rng.integers(3, 8))
        a = instances.gen_random_spn(n, int(rng.integers(10**6)))[0]
        if i % 2:
            u, e = unit_scale(a)
            floor = cones.check_membership_lp(u, eigen_decompose(u)[1], "Fpm").alpha_star
            a = a - rng.uniform(0.5, 1.0) * max(np.ldexp(floor, -e), 0.0) * np.ones((n, n))
        yield a, rng.integers(-6, 7, size=n)


def test_diagonal_scaling_keeps_n_and_h_and_maps_witnesses_back(monkeypatch):
    solve, lp_verdict, solved, lps = lp.solve, cones._lp_verdict, [], {}

    def recording(prog, *args, **kwargs):
        solved.append((prog, sol := solve(prog, *args, **kwargs)))
        return sol

    def verdict(a, vectors, sol, alpha0, family, *args):
        # each verdict reads one stage of the LP solved last
        lps[family] = (solved[-1][0], sol)
        return lp_verdict(a, vectors, sol, alpha0, family, *args)

    monkeypatch.setattr(lp, "solve", recording)
    monkeypatch.setattr(cones, "_lp_verdict", verdict)
    wanted = ["N", "H", "G", "Fplus", "Fpm"]
    h_checked, members, beyond = 0, 0, []
    for a, k in _diagonal_scaling_draws(900):
        da = _dad(a, k)
        base = {v.cone: v for v in cones.membership_report(a, ["N", "H"])}
        lps.clear()
        scaled = {v.cone: v for v in cones.membership_report(da, wanted)}
        # a stage at the cap ends the solve: the later stages repeat its
        # solution, and take its verdict with no read of their own
        for narrow, wide in zip(cones.LP_FAMILIES, cones.LP_FAMILIES[1:]):
            if wide not in lps:
                assert solved[-1][1].stages[-1] is lps[narrow][1]
                assert _fields(scaled[wide]) == (scaled[narrow].status, wide, *_fields(scaled[narrow])[2:])
                lps[wide] = lps[narrow]
        assert sorted(lps) == sorted(cones.LP_FAMILIES)
        # (a) D keeps every sign, and N looks at signs only
        assert scaled["N"].status == base["N"].status
        # (b) H factors S + PSD_TOL * max(1, max S_ii) * I, and that shift
        # does not scale with D: a verdict may flip only near the boundary
        s = cones.split_nonneg(a)[0]
        margin = np.linalg.eigvalsh(s)[0] / max(1.0, np.max(np.diag(s)))
        if abs(margin) > 1e-6:
            h_checked += 1
            assert scaled["H"].status == base["H"].status, (a, k)
        # (c) D^-1 S' D^-1 and D^-1 N' D^-1 are exact, so DAD's witness is
        # one of A with DAD's slack divided by d_i d_j, which is up to
        # spread = (max d / min d)^2 = 2^24 times larger relative to A's scale
        peak, over_min_d2 = np.max(np.abs(da)), 4.0 ** -k.min()
        for cone in wanted[1:]:
            v = scaled[cone]
            if not v.is_member:
                continue
            members += 1
            s_part, n_part = _dad(v.s_part, -k), _dad(v.n_part, -k)
            # N' = DAD - S' is rounded once: no spread
            assert np.all(np.abs(s_part + n_part - a) <= 2.0**-52 * (np.abs(n_part) + np.abs(a)))
            least = np.linalg.eigvalsh(s_part)[0]
            if cone == "H":
                # S' passed Cholesky with a shift of at most 4 PSD_TOL max|DAD|
                # at DAD's unit scale; D^-1 scales it by up to 1 / min d^2
                assert least >= -5 * PSD_TOL * peak * over_min_d2
                assert np.all(n_part >= 0.0)
                continue
            # S' = R R^T, and D^-1 S' D^-1 is the same rounded Gram matrix
            # of D^-1 R: no spread
            assert least >= -1e-13 * np.max(np.diag(s_part))
            # N' >= alpha* up to the row violation of the LP's x at DAD's
            # unit scale, at most that times max|DAD|, over d_i d_j
            prog, sol = lps[cone]
            violation = prog.constraint_violation(sol.x)
            if violation > lp.DEFAULT_FEAS_TOL:
                beyond.append(violation)
            slack = 2 * max(violation, lp.DEFAULT_FEAS_TOL) * peak
            assert np.all(n_part >= _dad(np.full(a.shape, v.alpha_star - slack), -k))
    assert h_checked >= 850 and members >= 2500, (h_checked, members)
    # an LP whose point still violates a row after lp.solve's one refine is
    # NUMERICAL, not a member, so no witness's N falls below alpha* by more
    # than DEFAULT_FEAS_TOL at DAD's unit scale
    assert beyond == []
    # (d) DD is not invariant: DAD = [[4, -3], [-3, 4]] is DD, A is not
    a, k = np.array([[1.0, -1.5], [-1.5, 4.0]]), np.array([1, 0])
    assert [v.is_member for v in cones.membership_report(a, ["DD"])] == [False]
    assert [v.is_member for v in cones.membership_report(_dad(a, k), ["DD"])] == [True]


def test_a_badly_scaled_lp_that_misses_a_row_after_its_refine_is_numerical(monkeypatch):
    # draw 20, n = 5 at the spread 2^20: the G LP's optimal basis gives a
    # point outside a row, and so does the same basis formed afresh
    a, k = list(_diagonal_scaling_draws(21))[20]
    checks, violation = [], lp.LinearProgram.constraint_violation

    def checked(prog, y):
        checks.append(violation(prog, y))
        return checks[-1]

    monkeypatch.setattr(lp.LinearProgram, "constraint_violation", checked)
    (g,) = cones.membership_report(_dad(a, k), ["G"])
    assert len(checks) == 2 and min(checks) > lp.DEFAULT_FEAS_TOL, checks
    assert (g.status, g.note) == (cones.NOT_IDENTIFIED, f"lp-{lp.NUMERICAL}")
    assert g.alpha_star is None and g.s_part is None


def test_a_stage_that_ends_numerical_restarts_the_families_after_it():
    # the draws on which a numerical F+ stage of a shared F+/F+- simplex
    # ended the solve and left F+- lp-numerical: a stage that ends
    # numerical now restarts its family and the later ones in a fresh
    # simplex (a failed first stage keeps its verdict, the rest restart
    # after it), so the report gives the lone F+- verdict
    draws = list(_diagonal_scaling_draws(885))
    members = 0
    for i in (15, 124, 126, 148, 232, 251, 267, 285, 388, 595, 617, 619, 627, 884):
        da = _dad(*draws[i])
        report = cones.membership_report(da, ["N", "H", "G", "Fplus", "Fpm"])
        (alone,) = cones.membership_report(da, ["Fpm"])
        fpm = report[-1]
        assert (fpm.status, fpm.note) == (alone.status, alone.note), i
        if fpm.is_member:
            assert abs(fpm.alpha_star - alone.alpha_star) <= 1e-12 * np.max(np.abs(da)), i
        members += fpm.is_member
    assert members == 12


def test_capped_report_keeps_the_uncapped_statuses():
    # the report's capped LPs give check_membership_lp's uncapped verdicts;
    # a member's alpha* stops at max(alpha0, 0), a non-member's is alpha*
    for seed in range(20):
        a = instances.gen_random_spn(16, seed)[0]
        report = {v.cone: v for v in cones.membership_report(a, cones.LP_FAMILIES)}
        u, e = unit_scale(a)
        p, alpha0 = eigen_decompose(u)[1], float(np.min(u))
        for family in cones.LP_FAMILIES:
            full, v = cones.check_membership_lp(u, p, family), report[family]
            assert v.status == full.status, (seed, family)
            alpha = min(full.alpha_star, max(alpha0, 0.0)) if full.is_member else full.alpha_star
            assert abs(np.ldexp(v.alpha_star, e) - alpha) <= 1e-12, (seed, family)


def test_l_test_is_sound_at_every_scale():
    # random indefinite matrices with a negative simplex point are never
    # copositive; at 1e10 the unscaled L test certified some of them
    rng = np.random.default_rng(0)
    mats = []
    while len(mats) < 200:
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n))
        a = (g + g.T) / 2
        x = rng.dirichlet(np.ones(n), size=200)
        if np.min(np.einsum("ki,ij,kj->k", x, a, x)) < 0:
            mats.append(a)
    for s in (1e-10, 1.0, 1e10):
        verdicts = [cones.membership_report(s * a, ["L"])[0] for a in mats]
        assert not any(v.is_member for v in verdicts), s
