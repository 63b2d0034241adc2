"""Chord anchors derived from a perfect difference set.

A perfect difference set on n residues has exactly one ordered pair
differing by 2 mod n.  Shifting by the pair's smaller member puts both 2
and n (residue 0, read as n) into the set and keeps 1 out; dropping {2, n}
leaves anchors whose lengths a, n + 2 - a and b - a + 2 are pairwise
distinct, that is, whose census ``graphs.predicted_spectrum`` repeats no
length.
"""

from __future__ import annotations

from typing import NamedTuple

from . import graphs, oracle, singer


class CycleSetDerivation(NamedTuple):
    """Intermediate values of the difference-set-to-anchors conversion."""

    pair: tuple[int, int]        # (a0, b0) with a0 - b0 = 2 mod n
    shifted: tuple[int, ...]     # the translate by b0 inside {1..n}: the census ruler
    anchors: tuple[int, ...]     # shifted without 2 and n


def derive_cycle_set_trace(diffset: singer.PerfectDifferenceSet) -> CycleSetDerivation:
    """The k - 2 sorted chord anchors of a perfect difference set, with the
    shift pair and the translate they come from.

    Refuses with ValueError anything that is not a perfect difference set
    of at least 3 elements, and re-checks the anchors against the census.
    """
    if diffset.k < 3 or not singer.verify_perfect_difference_set(diffset):
        raise ValueError("need a perfect difference set of at least 3 elements")
    n = diffset.n
    anchor, shift = next((a, b) for a in diffset.elements for b in diffset.elements
                         if (a - b) % n == 2)
    shifted = tuple(sorted((a - shift) % n or n for a in diffset.elements))
    anchors = tuple(x for x in shifted if x not in (2, n))
    if oracle.has_repeat(graphs.predicted_spectrum(n, anchors)):
        raise oracle.InternalInconsistency(f"derived anchors {anchors} repeat a length")
    return CycleSetDerivation((anchor, shift), shifted, anchors)
