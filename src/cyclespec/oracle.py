"""Ground truth by brute force.

Enumerates every simple cycle of a chorded cycle graph independently of the
closed-form census, and evaluates the two chord-pair counting bounds.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

from .graphs import ChordedCycleGraph

DEFAULT_CYCLE_BUDGET = 10 ** 6


class BudgetExceeded(RuntimeError):
    """Cycle enumeration passed its budget: as many cycles were found."""


class InternalInconsistency(RuntimeError):
    """A proved bound failed on a repeat-free graph; indicates a bug."""


def enumerate_cycles(graph: ChordedCycleGraph,
                     budget: int = DEFAULT_CYCLE_BUDGET) -> tuple[int, ...]:
    """Exact multiset of simple-cycle lengths, sorted, found by backtracking.

    The search runs on the graph contracted to its branch vertices, the
    chord endpoints: each cycle arc between two consecutive branch vertices
    becomes one edge weighted by its number of original edges, and each
    chord one edge of weight 1.  Edges are numbered, so parallel ones stay
    distinct.  Each cycle is walked once, in one direction: from its least
    vertex ``start``, out through the lower-numbered of its two edges at
    ``start`` and back through the higher one; a 2-edge cycle of two
    parallel edges counts too.  Vertices up to ``start`` are marked visited
    from the outset, and a path stops growing once every vertex it could
    close through lies on it.  Iterative on purpose: one explicit stack of
    (vertex, visited bit set, length) states, so thousands of branch
    vertices cannot hit the recursion limit.  A graph without chords is its
    one Hamilton cycle.  Independent of the closed-form census and of the
    search.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if not graph.chords:
        return (graph.n,)
    branch = sorted({v for chord in graph.chords for v in chord})
    index = {v: i for i, v in enumerate(branch)}
    # contracted edges (u, v, weight), numbered by position: the cycle arcs
    # between consecutive branch vertices, then the chords
    edges = [(index[u], index[v], (v - u) % graph.n)
             for u, v in zip(branch, branch[1:] + branch[:1])]
    edges += [(index[u], index[v], 1) for u, v in graph.chords]
    steps: list[list[tuple[int, int, int]]] = [[] for _ in branch]
    for u, v, weight in edges:  # in edge order
        steps[u].append((v, 1 << v, weight))
        steps[v].append((u, 1 << u, weight))
    lengths: list[int] = []
    for start, around in enumerate(steps):
        visited = (2 << start) - 1
        # roots in falling edge order, so closing holds the edges above each
        closing: dict[int, list[int]] = {}  # vertex -> weights back to start
        targets = 0                         # bit set of closing's vertices
        for first, _, weight in reversed(around):
            if first < start:
                continue
            stack = [(first, visited | 1 << first, weight)] if targets else []
            while stack:
                vertex, seen, total = stack.pop()
                for back in closing.get(vertex, ()):
                    if len(lengths) >= budget:
                        raise BudgetExceeded(f"cycle budget {budget} exceeded; "
                                             f"{budget} cycles found")
                    lengths.append(total + back)
                if targets & ~seen:  # some way back to start still open
                    for other, bit, step in steps[vertex]:
                        if not seen & bit:
                            stack.append((other, seen | bit, total + step))
            closing.setdefault(first, []).append(weight)
            targets |= 1 << first
    return tuple(sorted(lengths))


def has_repeated_length(lengths: Iterable[int]) -> int | None:
    """Smallest length occurring at least twice, or None; any order."""
    previous = None
    for length in sorted(lengths):
        if length == previous:
            return length
        previous = length
    return None


def crossing_pairs(graph: ChordedCycleGraph) -> int:
    """Chord pairs whose endpoints strictly interleave around the cycle.

    The chords are normalized and sorted, so each pair has a <= c: {a, b}
    and {c, d} cross exactly when a < c < b < d.  A shared endpoint never counts.
    """
    count = 0
    for (a, b), (c, d) in itertools.combinations(graph.chords, 2):
        if a < c < b < d:
            count += 1
    return count


def bound_report(graph: ChordedCycleGraph, spectrum: Iterable[int]) -> dict:
    """Chord-pair counting bounds evaluated on one graph, as an ordered dict.

    Every pair of chords supports at least one cycle through exactly those
    two chords, and crossing pairs support two, so on a repeat-free graph
    C(k, 2) < n (``pair_bound_ok``) and 2c + (C(k, 2) - c) <= n
    (``crossing_bound_ok``) must both hold; their failure there is a bug.
    ``edge_upper_bound`` is n + sqrt(2n) + 1 and ``singer_lower_bound`` is
    n + sqrt(n - 3/4) - 3/2.
    """
    k = len(graph.chords)
    crossings = crossing_pairs(graph)
    pairs = k * (k - 1) // 2
    report = {
        "chord_count": k,
        "crossing_count": crossings,
        "chord_pairs": pairs,
        "pair_bound_ok": pairs < graph.n,
        "crossing_bound_ok": 2 * crossings + (pairs - crossings) <= graph.n,
        "edge_upper_bound": graph.n + math.sqrt(2 * graph.n) + 1,
        "singer_lower_bound": graph.n + math.sqrt(graph.n - 0.75) - 1.5,
    }
    if has_repeated_length(spectrum) is None and not (report["pair_bound_ok"]
                                                      and report["crossing_bound_ok"]):
        raise InternalInconsistency(
            f"counting bound failed on a repeat-free graph: {report}")
    return report


def singer_lower_bound_exact(n: int) -> int | None:
    """n + sqrt(n - 3/4) - 3/2 exactly, when the root is rational.

    sqrt(n - 3/4) = sqrt(4n - 3) / 2 is rational exactly when 4n - 3 is a
    perfect square.  4n - 3 is odd, so is its root, and the value is the
    integer n + (root - 3) / 2.  That covers every n of the form
    q^2 + q + 1: there 4n - 3 = (2q + 1)^2 and the value is q^2 + 2q.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    root = math.isqrt(4 * n - 3)
    if root * root != 4 * n - 3:
        return None
    return n + (root - 3) // 2


def verification_report(graph: ChordedCycleGraph,
                        budget: int = DEFAULT_CYCLE_BUDGET) -> dict:
    """JSON-ready verification summary with a stable key order."""
    spectrum = enumerate_cycles(graph, budget)
    return {
        "n": graph.n,
        "edges": graph.edge_count,
        "chords": [list(chord) for chord in graph.chords],
        "spectrum": list(spectrum),
        "repeated": has_repeated_length(spectrum) is not None,
        "bounds": bound_report(graph, spectrum),
    }
