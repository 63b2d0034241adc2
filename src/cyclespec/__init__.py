"""Hamiltonian graphs in which no two cycles share a length.

The pipeline: a perfect difference set on n = q*q + q + 1 residues
(built from a degree-three field extension), a derived chord anchor
set whose induced cycle lengths are pairwise distinct, and the chorded
cycle graph realizing them.  An independent cycle-enumeration oracle
checks every construction, and an exhaustive search computes the exact
maximum edge count for small n.
"""

from .cycleset import (
    CycleSetDerivation,
    CycleSetViolation,
    DistinctCycleSet,
    ViolationKind,
    derive_cycle_set,
    derive_cycle_set_trace,
    verify_distinct_cycle_set,
)
from .graphs import (
    ChordedCycleGraph,
    GraphFormat,
    build_graph,
    export_graph,
    import_graph,
    predicted_spectrum,
)
from .oracle import (
    BoundReport,
    BudgetExceeded,
    bound_report,
    enumerate_cycles,
    has_repeated_length,
    is_sidon,
    singer_lower_bound_exact,
    verification_report,
)
from .search import ExactResult, exact_g, max_single_vertex_chords
from .singer import (
    DifferenceSetViolation,
    PerfectDifferenceSet,
    brute_force_difference_set,
    prime_power,
    singer_difference_set,
    translate,
    verify_perfect_difference_set,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "ChordedCycleGraph",
    "CycleSetDerivation",
    "CycleSetViolation",
    "DifferenceSetViolation",
    "DistinctCycleSet",
    "ExactResult",
    "GraphFormat",
    "PerfectDifferenceSet",
    "ViolationKind",
    "bound_report",
    "brute_force_difference_set",
    "build_graph",
    "derive_cycle_set",
    "derive_cycle_set_trace",
    "enumerate_cycles",
    "exact_g",
    "export_graph",
    "has_repeated_length",
    "import_graph",
    "is_sidon",
    "max_single_vertex_chords",
    "predicted_spectrum",
    "prime_power",
    "singer_difference_set",
    "singer_lower_bound_exact",
    "translate",
    "verification_report",
    "verify_distinct_cycle_set",
    "verify_perfect_difference_set",
]
