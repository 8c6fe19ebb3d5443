"""conekit: LP-based membership tests for tractable subcones of the
PSD-plus-nonnegative cone, and simplicial-partition copositivity testing.

The names exported here are the entry points: they validate their input
matrices, and the membership tests and the partition decide them at one
scale (linalg.unit_scale).  The helpers inside the modules trust the
symmetric float arrays and pairs those entry points make."""

from .cones import (
    MEMBER,
    NOT_IDENTIFIED,
    MembershipVerdict,
    membership_report,
)
from .copositivity import (
    COPOSITIVE,
    INCONCLUSIVE,
    NOT_COPOSITIVE,
    CopoConfig,
    CopoResult,
    test_copositive,
)
from .instances import (
    Graph,
    PlantedQp,
    QpBound,
    clique_number,
    gen_planted_qp,
    gen_random_spn,
    load_dimacs,
    max_clique_matrix,
    qp_optimum,
    std_qp_matrix,
)
from .linalg import as_sym_matrix, load_matrix
from .lp import LinearProgram, LpSolution, solve

__version__ = "0.1.0"

__all__ = [
    "MEMBER",
    "NOT_IDENTIFIED",
    "MembershipVerdict",
    "membership_report",
    "COPOSITIVE",
    "INCONCLUSIVE",
    "NOT_COPOSITIVE",
    "CopoConfig",
    "CopoResult",
    "test_copositive",
    "Graph",
    "PlantedQp",
    "QpBound",
    "clique_number",
    "gen_planted_qp",
    "gen_random_spn",
    "load_dimacs",
    "max_clique_matrix",
    "qp_optimum",
    "std_qp_matrix",
    "as_sym_matrix",
    "load_matrix",
    "LinearProgram",
    "LpSolution",
    "solve",
]
