"""Instance generation and problem reductions: max-clique and standard-QP
matrices, DIMACS graph ingestion, and seeded random generators.

All generators are pure functions of (parameters, seed); seeding uses
numpy's PCG64 via default_rng, recorded as the generator identity in
emitted metadata.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .copositivity import INCONCLUSIVE, CopoConfig, _partition
from .linalg import as_sym_matrix, check_int, check_real

GENERATOR_ID = "numpy-pcg64"


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; edges are 0-indexed pairs (i, j) with i < j,
    given in any iterable and kept as a frozenset of (i, j) tuples."""

    n: int
    edges: frozenset

    def __post_init__(self):
        check_int("graph size n", self.n, 1)
        edges = [tuple(e) if isinstance(e, Iterable) else (e,) for e in self.edges]
        for e in edges:
            ints = all(isinstance(v, Integral) and not isinstance(v, bool) for v in e)
            if not (ints and len(e) == 2 and 0 <= e[0] < e[1] < self.n):
                raise ValueError(f"invalid edge {e} for {self.n} nodes")
        object.__setattr__(self, "edges", frozenset(edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


def complete_graph(n: int) -> Graph:
    check_int("graph size n", n, 1)
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def load_dimacs(path) -> Graph:
    """Parse a DIMACS edge-list file ("p edge n m" header, "e i j" lines)."""
    n = declared_m = header_line = None
    edges = set()
    edge_lines = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise ParseError("duplicate problem line", lineno)
                if len(parts) != 4 or parts[1] not in ("edge", "col"):
                    raise ParseError("malformed problem line", lineno)
                try:
                    n, declared_m, header_line = int(parts[2]), int(parts[3]), lineno
                except ValueError:
                    raise ParseError("non-integer header fields", lineno) from None
                if n < 1 or declared_m < 0:
                    raise ParseError("invalid header counts", lineno)
            elif parts[0] == "e":
                if n is None:
                    raise ParseError("edge before problem line", lineno)
                if len(parts) != 3:
                    raise ParseError("malformed edge line", lineno)
                try:
                    i, j = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ParseError("non-integer endpoints", lineno) from None
                if i == j:
                    raise ParseError(f"self-loop on node {i}", lineno)
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ParseError(f"endpoint out of range ({i}, {j})", lineno)
                edges.add((min(i, j) - 1, max(i, j) - 1))
                edge_lines += 1
            else:
                raise ParseError(f"unknown record {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing problem line", 0)
    if edge_lines != declared_m:
        raise ParseError(
            f"header declares {declared_m} edges, file has {edge_lines}", header_line
        )
    return Graph(n, frozenset(edges))


def format_dimacs(g: Graph) -> str:
    edges = "".join(f"e {i + 1} {j + 1}\n" for i, j in sorted(g.edges))
    return f"p edge {g.n} {g.m}\n" + edges


def max_clique_matrix(g: Graph, gamma: float) -> np.ndarray:
    """The clique-detection matrix gamma * (E - adjacency) - E; a gamma not
    finite and real is refused before it meets the adjacency's zeros."""
    gamma = check_real("gamma", gamma)
    e = np.ones((g.n, g.n))
    return gamma * (e - g.adjacency()) - e


def std_qp_matrix(q: np.ndarray, gamma: float) -> np.ndarray:
    """The level-shift matrix Q - gamma * E for the simplex-constrained QP;
    a gamma not finite and real is refused, as max_clique_matrix refuses it."""
    gamma = check_real("gamma", gamma)
    q = as_sym_matrix(q)
    return q - gamma * np.ones_like(q)


def clique_number(g: Graph, cfg: CopoConfig | None = None) -> int | None:
    """Clique number by one simplicial partition on E - A_G.

    By Motzkin-Straus the minimum of x^T (E - A_G) x over the simplex is
    1/omega, attained at the barycentre of a largest clique.  The partition,
    from its replicator start, certifies the level 1/(k + 1/2),
    k = round(1/best): the half-integer margin keeps every cell test
    strictly inside the copositive cone, where a level at 1/omega itself
    would stall.  On completion 1/best <= omega <= k, so omega = k.
    Returns None if the partition ends inconclusive.
    """
    level = lambda best: 1.0 / (round(1.0 / best) + 0.5)
    res, best = _partition(1.0 - g.adjacency(), cfg or CopoConfig(), level)
    return None if res.outcome == INCONCLUSIVE else round(1.0 / best)


@dataclass
class QpBound:
    """Bracket [lo, hi] on the simplex-QP optimum; converged marks whether
    the bracket closed to the requested width."""

    lo: float
    hi: float
    converged: bool


def qp_optimum(
    q: np.ndarray, cfg: CopoConfig | None = None, eta: float = 0.1
) -> QpBound:
    """Bracket the minimum of x^T Q x over the standard simplex.

    One partition certifies the level best - eta, best being the lowest value
    at the partition's replicator start and the cell vertices, so on
    completion the minimum lies in [best - eta, best]; inconclusive, it lies
    in [min Q, best].  eta and the bracket keep the caller's units.
    """
    eta, q = check_real("eta", eta, positive=True), as_sym_matrix(q)
    res, best = _partition(q, cfg or CopoConfig(), lambda best: best - eta)
    if res.outcome == INCONCLUSIVE:
        return QpBound(float(np.min(q)), best, converged=False)
    return QpBound(best - eta, best, converged=True)


def gen_random_spn(n: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random member of the PSD-plus-nonnegative cone: S is a Gaussian Gram
    matrix, N a symmetrized uniform matrix shifted so its smallest diagonal
    entry is zero.  Returns (A, S, N) with A = S + N."""
    check_int("n", n, 1)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    s = b @ b.T
    f = rng.uniform(0.0, 1.0, size=(n, n))
    c = f + f.T
    n_mat = c - np.min(np.diag(c)) * np.eye(n)
    return s + n_mat, s, n_mat


@dataclass(frozen=True)
class PlantedQp:
    """Simplex QP with a known global minimizer x_star and optimum t."""

    Q: np.ndarray
    x_star: np.ndarray
    t: float


def gen_planted_qp(n: int, support_size: int, t: float, seed) -> PlantedQp:
    """Simplex QP with a planted minimizer.

    Draws x_star uniformly on a random face of the simplex, then builds
    Q = t*E + R^T H R + N0 with R = I - x_star e^T (so R x = x - x_star on
    the simplex), H a scaled Gaussian Gram matrix, and N0 nonnegative noise
    vanishing on the support block.  The form then satisfies
    x^T Q x = t + (x - x_star)^T H (x - x_star) + x^T N0 x >= t on the
    simplex, with equality at x_star.
    """
    check_int("support_size", support_size, 1, check_int("n", n))
    t = check_real("t", t)
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=support_size, replace=False))
    x_star = np.zeros(n)
    x_star[support] = rng.dirichlet(np.ones(support_size))
    e = np.ones(n)
    r = np.eye(n) - np.outer(x_star, e)
    g = rng.standard_normal((n, n))
    h = (g @ g.T) / n
    f = rng.uniform(0.0, 1.0, size=(n, n))
    n0 = (f + f.T) / 2.0
    n0[np.ix_(support, support)] = 0.0
    q = t * np.outer(e, e) + r.T @ h @ r + n0
    q = q / 2.0 + q.T / 2.0  # halving is exact, and a sum near the range overflows
    return PlantedQp(Q=q, x_star=x_star, t=t)


def gen_gnp_graph(n: int, p: float, seed) -> Graph:
    """Erdos-Renyi graph with edge probability p."""
    check_int("n", n, 1)
    check_real("edge probability p", p, 0, 1)
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


def plant_clique(g: Graph, k: int, seed) -> Graph:
    """Add a k-clique on random nodes, guaranteeing clique number >= k."""
    check_int("clique size k", k, 1, g.n)
    rng = np.random.default_rng(seed)
    nodes = sorted(rng.choice(g.n, size=k, replace=False))
    extra = {
        (nodes[a], nodes[b]) for a in range(k) for b in range(a + 1, k)
    }
    return Graph(g.n, frozenset(set(g.edges) | extra))

