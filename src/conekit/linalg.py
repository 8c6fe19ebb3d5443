"""Dense symmetric linear algebra: eigendecomposition, PSD testing,
congruence transforms, and the plain-text matrix format shared by the CLI;
and the input checks of the package, for matrices and for scalar arguments."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

PSD_TOL = 1e-9
ASYM_TOL = 1e-12  # relative asymmetry that as_sym_matrix repairs


def as_sym_matrix(entries) -> np.ndarray:
    """Validate and return an exactly symmetric dense float matrix.

    Accepts anything array-like.  Rejects non-real entries (complex ones,
    strings and bytes), non-square shapes, non-finite entries, and asymmetry
    beyond ``ASYM_TOL * max|A|``; mild asymmetry is repaired by mirroring
    the upper triangle.  The package's entry points call it once; the
    helpers behind them take its output as trusted.
    """
    a = np.asarray(entries)
    # the float cast would keep only the real part, or parse a quoted number
    text = a.dtype == object and any(isinstance(x, (str, bytes)) for x in a.flat)
    if a.dtype.kind in "cSU" or text:
        raise ValueError("matrix entries must be real")
    try:
        a = np.array(a, dtype=float)
    except TypeError:  # an object entry that is not a real number, such as 2j
        raise ValueError("matrix entries must be real") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    asym = float(np.max(np.abs(a - a.T)))
    if asym > ASYM_TOL * float(np.max(np.abs(a))):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    upper = np.triu(a)
    return upper + np.triu(a, 1).T


def check_int(what: str, v, lo=-math.inf, hi=math.inf):
    """v if it is an integer (not a bool) in [lo, hi], else a ValueError."""
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return _in_range(what, v, lo, hi)


def as_float(what: str, v, bound: str = "finite") -> float:
    """float(v), or a ValueError, not an OverflowError, where v is too large."""
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} must be {bound}, got {v}") from None


def check_real(what: str, v, lo=-math.inf, hi=math.inf, positive=False) -> float:
    """float(v) if v is a real number (not a bool), finite and in [lo, hi],
    and above 0 if positive, else a ValueError; each names what and v."""
    if isinstance(v, bool) or not isinstance(v, Real):
        raise ValueError(f"{what} must be a real number, got {v!r}")
    bound = "positive and finite" if positive else "finite"
    x = as_float(what, v, bound)
    if not math.isfinite(x) or positive and x <= 0:
        raise ValueError(f"{what} must be {bound}, got {v}")
    return _in_range(what, x, lo, hi)


def _in_range(what: str, v, lo, hi):
    if not lo <= v <= hi:
        bounds = f"be at least {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
        raise ValueError(f"{what} must {bounds}, got {v}")
    return v


def unit_scale(a: np.ndarray):
    """(2^k A, k), k = 0 for A = 0, else max|2^k A| in [1, 4) with k even, so
    sqrt(2^k y) is 2^(k/2) sqrt(y) bit for bit: the one scale the entry points
    decide A at.  Exact, or a ValueError where it would flush an entry to 0."""
    peak = float(np.max(np.abs(a)))
    k = 2 * ((2 - int(np.frexp(peak)[1])) // 2) if peak else 0
    scaled = np.ldexp(a, k)
    if np.any((scaled == 0.0) & (a != 0.0)):
        raise ValueError("scaling max|A| to [1, 4) flushes an entry to zero")
    return scaled, k


@dataclass(frozen=True)
class EigenPair:
    """A factorization A = P diag(lam) P^T.

    ``orthogonal`` marks whether P is orthogonal; congruence-derived pairs
    carry a merely nonsingular P.
    """

    P: np.ndarray
    lam: np.ndarray
    orthogonal: bool = True

    def reconstruct(self) -> np.ndarray:
        a = (self.P * self.lam) @ self.P.T
        return (a + a.T) / 2.0


def eigen_decompose(a: np.ndarray) -> EigenPair:
    """Diagonalize a symmetric float matrix with ``numpy.linalg.eigh``.

    Eigenvalues come back in descending order; equal eigenvalues keep
    LAPACK's order, so a diagonal input yields signed unit vectors.  Each
    eigenvector's sign is fixed by a parity bit of its own bytes, which keeps
    the output deterministic for a fixed input without aligning the signs
    coherently (coherent alignments measurably weaken the pairwise-sum
    detection basis built from the eigenvectors downstream).  They are hashed
    and flipped as rows of one copy, so P, its transpose, is Fortran-ordered.
    """
    lam, v = np.linalg.eigh(a)
    order = np.argsort(-lam, kind="stable")
    rows = v.T[order]  # row k is the k-th eigenvector
    flip = [hashlib.sha256(row).digest()[0] & 1 for row in rows]
    np.negative(rows, out=rows, where=np.array(flip, dtype=bool)[:, None])
    return EigenPair(rows.T, lam[order], True)


def is_psd_cholesky(a: np.ndarray) -> bool:
    """PSD test by one LAPACK Cholesky factorization of A + PSD_TOL * scale * I,
    scale = max(1, max diagonal entry): True iff it succeeds with a finite
    factor, that is iff no eigenvalue of A lies below -PSD_TOL * scale, up to
    rounding; a NaN or infinite entry fails.  Never raises for a symmetric
    float input."""
    scale = max(1.0, float(np.max(np.diag(a))))
    try:
        factor = np.linalg.cholesky(a + PSD_TOL * scale * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(factor)))  # LAPACK lets NaN through


def congruence(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return the symmetrized congruence transform V^T A V."""
    w = v.T @ a @ v
    return (w + w.T) / 2.0


def format_matrix(a: np.ndarray) -> str:
    """Serialize a matrix to the shared text format: dimension line, then rows."""
    a = np.asarray(a, dtype=float)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_matrix(path) -> np.ndarray:
    """Load a symmetric matrix from the shared text format.

    Line 1 holds n; the next n lines hold n whitespace-separated values each.
    The loader symmetrizes inputs whose asymmetry is at most 1e-12 * max|A|
    and rejects anything worse.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError(f"{path}: first token must be the dimension") from None
    if n < 1:
        raise ValueError(f"{path}: dimension must be positive, got {n}")
    values = tokens[1:]
    if len(values) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {len(values)}")
    try:
        a = np.array([float(v) for v in values], dtype=float).reshape(n, n)
    except ValueError:
        raise ValueError(f"{path}: non-numeric matrix entry") from None
    try:
        return as_sym_matrix(a)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
