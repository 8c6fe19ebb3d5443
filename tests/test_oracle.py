"""An exact copositivity oracle that shares no code with conekit, and the
partition's and the membership tests' verdicts judged against it.

The oracle is the recursion of Cottle, Habetler & Lemke ("On classes of
copositive matrices", Linear Algebra Appl. 3, 1970): if every principal
submatrix of order n - 1 of A is copositive, then A is not copositive iff
A^-1 exists and is entrywise <= 0.  So, taking the principal submatrices by
increasing order, the first whose inverse is <= 0 proves A not copositive,
and A is copositive if there is none.  The inverses are taken by
Gauss-Jordan elimination in fractions, on the floats' exact values.
"""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

from conekit import cones
from conekit.copositivity import (
    COPOSITIVE,
    FAMILIES,
    NOT_COPOSITIVE,
    CopoConfig,
)
from conekit.copositivity import test_copositive as run_copositive

HORN = np.array([
    [1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
    [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1],
], dtype=float)


def _inverse(m):
    """The inverse of a square list of Fractions, or None if it is singular."""
    n = len(m)
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def is_copositive(a) -> bool:
    """Exact copositivity of a symmetric float matrix (see the module docstring)."""
    a = [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]
    for order in range(1, len(a) + 1):
        for s in itertools.combinations(range(len(a)), order):
            inv = _inverse([[a[i][j] for j in s] for i in s])
            if inv is not None and all(x <= 0 for row in inv for x in row):
                return False
    return True


def exact_form(a, x) -> Fraction:
    """x^T A x on the floats' exact values."""
    xs = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    rows = np.asarray(a, dtype=float).tolist()
    return sum(Fraction(rows[i][j]) * xs[i] * xs[j]
               for i in range(len(xs)) for j in range(len(xs)))


def _configs():
    """Every family under each algorithm it runs: N and H run alg 1 only."""
    return [CopoConfig(cone_family=f, use_alg2=alg2, max_iterations=20_000)
            for f in FAMILIES for alg2 in (False, True)
            if not alg2 or f in cones.LP_FAMILIES]


def test_the_oracle_on_horns_matrix():
    # Horn's matrix is copositive and outside PSD + N; its form has zeros on
    # the simplex, so any shift down along E leaves the cone
    assert is_copositive(HORN)
    assert not is_copositive(HORN - 1e-12)
    assert is_copositive(np.eye(3)) and not is_copositive(-np.eye(3))
    assert not is_copositive([[1.0, -2.0], [-2.0, 1.0]])
    assert exact_form(HORN - 1e-12, [0.5, 0.5, 0, 0, 0]) < 0


def _rank_one_blocks(count):
    """A = u u^T with A[2, 2] = 1, u = (p r, -q r, 0): p, q and r drawn in
    that order from default_rng(1), p and q in 1..7, a draw with p and q
    not coprime skipped, r ~ U(0.05, 3).  The 2 x 2 block is singular but
    for rounding, so its entries land on either side of the cone's
    boundary, and a float form at a cell vertex near its zero can read
    below the exact one."""
    rng = np.random.default_rng(1)
    mats = []
    while len(mats) < count:
        p, q, r = int(rng.integers(1, 8)), int(rng.integers(1, 8)), rng.uniform(0.05, 3)
        if gcd(p, q) == 1:
            a = np.outer([p * r, -q * r, 0.0], [p * r, -q * r, 0.0])
            a[2, 2] = 1.0
            mats.append(a)
    return mats


def test_no_refutation_of_a_copositive_rank_one_block():
    # a not_copositive verdict must rest on an exactly negative form.  This
    # set asserts no copositive verdict: H, G, F+ and F+- certify all 50,
    # the 18 outside the cone too, since those lie inside the slack that
    # the membership threshold EPS_ALPHA allows
    mats = _rank_one_blocks(50)
    truth = [is_copositive(a) for a in mats]
    assert sum(truth) == 32
    for a, copositive in zip(mats, truth):
        for cfg in _configs():
            res = run_copositive(a, cfg)
            if res.outcome == NOT_COPOSITIVE:
                assert not copositive, (cfg, a)
                assert exact_form(a, res.certificate) < 0, (cfg, a)


# the boundary t* = min over the simplex of x^T A x of each matrix of
# _boundary_set, bisected 40 times with is_copositive from [min A, min diag A];
# its lower end, so that A - t* E is copositive
SHIFTS = [
    -0.6461429595947266, -1.8099117279052734, -0.06466738879844453,
    -0.45099449157766236, -1.832961082458496, -1.4922294616699219, -0.7505083084110823,
    -1.9592714309692383, -1.5154762268066406, -1.1842594146728516, -0.346194735422657,
    -1.288407325744629, -1.2698135375977655, -0.6256093978887662, -1.5970001220703125,
    -0.6003230861930484, -1.678537368774414, -1.214848518371582, -1.157390604773225,
    -0.579465866089331, -0.5362509618827801, -3.066455841064453, -1.5361690521240234,
    -0.49538186031798254, -1.8540973663330078, -1.63311767578125, -1.0990793975715998,
    -1.0065011978149414, -0.6702350986677078, -0.8888006210328001, -1.1625728607178614,
    -1.6727352142333984, -0.04007720947315392, -0.19542130771326371,
    -1.5057430267333984, -1.2458696365356445, -0.9824485841206803, -2.4254159927368164,
    -1.4548635482788086, -1.2004098892211914, -0.9701910018920898, -1.5841093063354492,
    -2.3401174545288086, -1.358722686767782, -0.6515531539916992, -1.411208152770996,
    -0.27292919158961626, -0.4351724660638633, -1.8505935668945312, -0.8360509872436523,
    -0.9402189254760742, -0.8415117263797104, -1.5437297821044922, -0.9008684158330302,
    -1.350744193570649, -2.0048112869262695, -0.1979766252872796, -0.5012508033132939,
    -2.0027809143066406, -0.782928466796875, -1.0298042297363281, -0.4887566439400165,
    -0.5624561653303788, 0.09135311656564174, -1.8004817962646484, -0.9960377753528598,
    -1.7023448944091797, -2.084775924682617, -1.62255859375, -0.7717396116745318,
    -1.3161258697509766, -1.0213584899902344, -0.005820215396011186, -0.710693922211969,
    -1.6537532806396484, -0.9920568466186523, -1.5444211959838867, -1.2361794285500374,
    -0.7484865188599263, -0.26428604125978905, -0.44927959492388636,
    -1.1028499603271484, -0.34651723305547605, -0.6483936309814453, -0.7610998153686523,
    -2.1940765380859375, -0.7564907073975572, -1.5699939668833565, -0.546916961670387,
    -1.4439125061035156, -0.8353538513183594, -0.9797649383549236, -0.8101184596393889,
    -1.19023003729372, -2.15677547454834, -1.0131530761726524, -1.5792245864868164,
    -1.7367525100708008, -0.6961765289310783, -1.170109748840332,
]


def _boundary_set():
    """(matrix, copositive) pairs: a Gaussian A from default_rng(19), n in
    3..6, on a 2^-20 grid, moved along E to a distance d = 10^U(-6, -2)
    inside or outside the cone, that is A - (t* - d) E or A - (t* + d) E."""
    rng = np.random.default_rng(19)
    out = []
    for t in SHIFTS:
        n = int(rng.integers(3, 7))
        g = rng.normal(size=(n, n))
        a = np.ldexp(np.round(np.ldexp((g + g.T) / 2, 20)), -20)
        d = 10.0 ** rng.uniform(-6, -2)
        inside = bool(rng.integers(2))
        out.append((a - (t - d if inside else t + d), inside))
    return out


def test_verdicts_agree_with_the_oracle_near_the_boundary():
    # at a distance of 1e-6 or more every family and algorithm decides each
    # matrix as the oracle does, and no membership test calls a matrix
    # outside the cone a member
    cases = _boundary_set()
    assert [is_copositive(a) for a, _ in cases] == [inside for _, inside in cases]
    assert sum(inside for _, inside in cases) == 56
    for a, copositive in cases:
        for cfg in _configs():
            res = run_copositive(a, cfg)
            assert res.outcome == (COPOSITIVE if copositive else NOT_COPOSITIVE), cfg
            if not copositive:
                assert exact_form(a, res.certificate) < 0, cfg
        members = [v.cone for v in cones.membership_report(a) if v.is_member]
        assert copositive or members == [], members
