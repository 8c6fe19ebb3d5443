import hashlib
import subprocess
import sys

import numpy as np
import pytest

import conekit
from conekit.linalg import (
    PSD_TOL,
    as_sym_matrix,
    congruence,
    eigen_decompose,
    format_matrix,
    is_psd_cholesky,
    load_matrix,
    unit_scale,
)

M1 = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, -3.0], [2.0, -3.0, 6.0]])


def test_as_sym_matrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        as_sym_matrix(np.array([[1.0, 2.0], [3.0, 1.0]]))
    # the tolerance is relative to max|A| at every scale: 0.5% is rejected
    with pytest.raises(ValueError):
        as_sym_matrix(1e-10 * np.array([[1.0, 2.0], [2.01, 1.0]]))
    assert np.array_equal(as_sym_matrix(np.zeros((2, 2))), np.zeros((2, 2)))


def test_as_sym_matrix_mirrors_the_upper_triangle_bit_for_bit():
    # the reference: the upper triangle plus its strict part transposed,
    # which also turns every -0.0 into +0.0
    rng = np.random.default_rng(7)
    negative_zeros = 0
    for n in range(1, 7):
        sym = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
        sym = sym + sym.T  # zero where both draws are
        signed = np.where(rng.random((n, n)) < 0.5, -sym, sym)  # -0.0 where 0
        pick = rng.random((n, n)) < 0.4
        huge = np.where(pick | pick.T, np.copysign(1e308, sym + sym.T), sym)
        cases = [
            np.where(sym == 0.0, signed, sym),  # -0.0 on either side of the diagonal
            sym * (1.0 + 1e-13 * rng.uniform(-1, 1, size=(n, n))),  # repaired
            huge,  # +-1e308
        ]
        for a in cases:
            ref = np.triu(a) + np.triu(a, 1).T
            out = as_sym_matrix(a)
            assert out.tobytes() == ref.tobytes() and out.flags.c_contiguous, n
            assert not np.any(np.signbit(out) & (out == 0.0))
            negative_zeros += np.count_nonzero(np.signbit(a) & (a == 0.0))
    assert negative_zeros > 0


def test_unit_scale_is_an_even_power_into_one_to_four():
    for peak in (1e-310, 1e-10, 0.3, 1.0, 2.0, 3.99, 4.0, 1e10, 1e308):
        a = np.array([[peak, -peak / 3], [-peak / 3, 0.0]])
        scaled, k = unit_scale(a)
        assert k % 2 == 0 and 1.0 <= np.max(np.abs(scaled)) < 4.0, peak
        assert np.array_equal(scaled, np.ldexp(a, k))
    assert unit_scale(np.zeros((2, 2)))[1] == 0


def test_as_sym_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_sym_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_entry_points_reject_bad_input():
    # the entry points are the only place input is validated
    for bad in ([[1.0, 2.0], [3.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
        for call in (
            lambda: conekit.membership_report(bad),
            lambda: conekit.test_copositive(bad),
            lambda: conekit.qp_optimum(bad),
            lambda: conekit.std_qp_matrix(bad, 0.0),
        ):
            with pytest.raises(ValueError):
                call()


def test_entry_points_refuse_a_matrix_that_is_not_real():
    # a float cast would keep only the real part, which is copositive
    bad = np.array([[1.0, -1.0], [-1.0, 1.0]]) + 5j * (1 - np.eye(2))
    for call in (
        lambda: conekit.test_copositive(bad),
        lambda: conekit.membership_report(bad),
        lambda: conekit.qp_optimum(bad),
        lambda: conekit.as_sym_matrix([[1 + 2j]]),
        lambda: conekit.as_sym_matrix(np.array([[1, 2j], [2j, 1]], dtype=object)),
    ):
        with pytest.raises(ValueError, match="matrix entries must be real"):
            call()


def test_entry_points_refuse_quoted_numbers():
    # a float cast parses "1", as the generators refuse it for t, p or gamma
    quoted = [["1", "-1"], ["-1", "1"]]
    for entries in (
        quoted,
        [[b"1", b"-1"], [b"-1", b"1"]],
        np.array(quoted, dtype=object),
        np.array([[1.0, b"-1"], [-1.0, 1.0]], dtype=object),
    ):
        with pytest.raises(ValueError, match="matrix entries must be real"):
            conekit.as_sym_matrix(entries)
    for call in (conekit.membership_report, conekit.test_copositive, conekit.qp_optimum):
        with pytest.raises(ValueError, match="matrix entries must be real"):
            call(quoted)
    # an object array of real numbers is still read
    assert conekit.as_sym_matrix(np.array([[1, 0.5], [0.5, 1]], dtype=object)).dtype == float


def _check_pair(a, lam, p, tol):
    # eigen_decompose's (lam, P): lam descending, P's columns orthonormal,
    # and (P * lam) P^T within tol of A
    n = len(a)
    assert np.all(np.diff(lam) <= 0.0)
    assert np.max(np.abs(p.T @ p - np.eye(n))) <= 1e-12
    assert np.max(np.abs((p * lam) @ p.T - a)) <= tol


def test_eigen_identity():
    lam, p = eigen_decompose(np.eye(3))
    # eigenvector signs are an implementation choice; columns must be +-e_j
    assert np.allclose(np.abs(p), np.eye(3))
    assert np.allclose(lam, [1.0, 1.0, 1.0])
    _check_pair(np.eye(3), lam, p, 1e-12)


def test_eigen_diagonal_descending():
    lam, p = eigen_decompose(np.diag([1.0, 2.0]))
    assert np.allclose(lam, [2.0, 1.0])
    # columns are signed unit vectors
    assert np.allclose(np.abs(p), [[0.0, 1.0], [1.0, 0.0]])


def test_eigen_m1_reconstruction():
    lam, p = eigen_decompose(M1)
    _check_pair(M1, lam, p, 1e-10 * np.max(np.abs(M1)))
    gaps = np.diff(lam)
    assert np.all(gaps < -1e-6)  # three distinct eigenvalues


def test_eigen_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 7))
    a = (a + a.T) / 2
    e1 = eigen_decompose(a)
    e2 = eigen_decompose(a)
    assert np.array_equal(e1[1], e2[1])
    assert np.array_equal(e1[0], e2[0])


def test_eigen_deterministic_across_many_matrices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        e1 = eigen_decompose(a)
        e2 = eigen_decompose(a.copy())
        assert np.array_equal(e1[1], e2[1])
        assert np.array_equal(e1[0], e2[0])


def test_eigen_signs_follow_the_column_hash():
    # each eigenvector is eigh's column, negated iff the first byte of the
    # sha256 of that column's bytes is odd; P keeps the Fortran order of the
    # column gather v[:, order], the memory order later BLAS calls see
    rng = np.random.default_rng(29)
    flipped = kept = 0
    for n in range(1, 13):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        lam, v = np.linalg.eigh(a)
        order = np.argsort(-lam, kind="stable")
        got_lam, p = eigen_decompose(a)
        assert np.array_equal(got_lam, lam[order])
        assert p.flags.f_contiguous
        for k, j in enumerate(order):
            col = v[:, j]
            odd = hashlib.sha256(col.tobytes()).digest()[0] & 1
            assert np.array_equal(p[:, k], -col if odd else col)
            flipped, kept = flipped + odd, kept + (not odd)
    assert flipped and kept


def test_eigen_random_residuals():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        a = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
        a = (a + a.T) / 2
        _check_pair(a, *eigen_decompose(a), 1e-9 * max(1.0, np.max(np.abs(a))))


def test_eigen_larger_matrices():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=(30, 30))
        a = (a + a.T) / 2
        _check_pair(a, *eigen_decompose(a), 1e-9 * max(1.0, np.max(np.abs(a))))


def test_psd_examples():
    s_m1 = np.array([[2.0, 0, 0], [0, 2.0, -3.0], [0, -3.0, 6.0]])
    assert is_psd_cholesky(s_m1)
    s_m2 = np.array([[1.0, 0, -2.0], [0, 1.0, -2.0], [-2.0, -2.0, 4.0]])
    assert not is_psd_cholesky(s_m2)
    assert not is_psd_cholesky(-np.eye(2))
    assert is_psd_cholesky(np.zeros((3, 3)))
    # LAPACK passes NaN through a factorization, so it is caught on the factor
    assert not is_psd_cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with np.errstate(invalid="ignore"):  # inf * 0 in the shift
        assert not is_psd_cholesky(np.array([[np.inf, -np.inf], [-np.inf, np.inf]]))


def test_psd_agrees_with_min_eigenvalue():
    rng = np.random.default_rng(17)
    tol = PSD_TOL
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 10))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        lam_min = float(np.min(eigen_decompose(a)[0]))
        if abs(lam_min) <= 10 * tol:
            continue
        checked += 1
        assert is_psd_cholesky(a) == (lam_min > 0)
    assert checked > 200


def test_psd_rule_is_no_eigenvalue_below_minus_tol_scale():
    # B B^T with B of size n x (n - 1) is PSD and singular; shifted down by
    # c * tol * scale, its smallest eigenvalue is -c * tol * scale up to
    # rounding, so the documented rule accepts it for c < 1 and not for c > 1
    tol = PSD_TOL

    def draws(c):
        rng = np.random.default_rng(2006)
        for _ in range(200):
            n = int(rng.integers(3, 13))
            b = rng.normal(size=(n, n - 1)) * 10.0 ** rng.uniform(-1, 2)
            a = b @ b.T
            scale = max(1.0, float(np.max(np.diag(a))))
            yield a - c * tol * scale * np.eye(n)

    assert all(is_psd_cholesky(a) for a in draws(0.5))
    assert not any(is_psd_cholesky(a) for a in draws(2.0))


def test_congruence_examples():
    assert np.allclose(congruence(np.eye(2), np.eye(2)), np.eye(2))
    v = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(congruence(np.eye(2), v), [[1.0, 1.0], [1.0, 2.0]])
    e12 = np.eye(3)[:, :2]
    assert np.allclose(congruence(M1, e12), [[2.0, 2.0], [2.0, 2.0]])


def test_congruence_dimension_mismatch():
    with pytest.raises(ValueError):
        congruence(np.eye(2), np.eye(3))


def test_congruence_composes():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(5, 5))
    a = (a + a.T) / 2
    v1 = rng.normal(size=(5, 4))
    v2 = rng.normal(size=(4, 3))
    lhs = congruence(a, v1 @ v2)
    rhs = congruence(congruence(a, v1), v2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_matrix_text_roundtrip(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(format_matrix(M1))
    assert np.array_equal(load_matrix(p), M1)


def test_matrix_text_rejects_asymmetry(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2\n1 2\n3 1\n")
    with pytest.raises(ValueError):
        load_matrix(p)


def test_matrix_text_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n1 2\n")
    with pytest.raises(ValueError):
        load_matrix(p)
    p.write_text("")
    with pytest.raises(ValueError):
        load_matrix(p)
    for text, message in (
        ("2.5\n1 0\n0 1\n", "first token must be the dimension"),
        ("0\n", "dimension must be positive, got 0"),
        ("-1\n1\n", "dimension must be positive, got -1"),
        ("2\n1 x\nx 1\n", "non-numeric matrix entry"),
    ):
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            load_matrix(p)
        assert str(err.value) == f"{p}: {message}", text


def test_runtime_imports_no_scipy():
    # the runtime is numpy-only; scipy is a test-time reference at most.
    # numpy.ma is numpy's, but loads lazily (np.setdiff1d loads it) and
    # costs about 2 MB of peak memory, so neither may load at import or
    # on a report, a QP bracket or a copositivity test
    probe = (
        "import sys, numpy as np, conekit\n"
        "from conekit import instances\n"
        "conekit.membership_report(instances.gen_random_spn(8, 0)[0])\n"
        "conekit.qp_optimum(instances.gen_planted_qp(6, 3, -1.0, seed=0).Q)\n"
        "conekit.test_copositive(np.eye(3) - 0.5)\n"
        "print(sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]", f"the runtime loaded {r.stdout.strip()}"
