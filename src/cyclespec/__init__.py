"""Hamiltonian graphs in which no two cycles share a length.

The pipeline: a perfect difference set on n = q*q + q + 1 residues
(built from a degree-three field extension), a derived chord anchor
set whose induced cycle lengths are pairwise distinct, and the chorded
cycle graph realizing them.  An independent cycle-enumeration oracle
checks every construction, and an exhaustive search computes the exact
maximum edge count for small n.
"""

from .cycleset import derive_cycle_set_trace
from .graphs import build_graph, import_graph, predicted_spectrum
from .oracle import enumerate_cycles
from .search import exact_g
from .singer import singer_difference_set

__version__ = "0.1.0"

__all__ = [
    "build_graph",
    "derive_cycle_set_trace",
    "enumerate_cycles",
    "exact_g",
    "import_graph",
    "predicted_spectrum",
    "singer_difference_set",
]
