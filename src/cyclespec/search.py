"""Exhaustive search for the maximum number of chords a labeled n-cycle
admits while keeping all cycle lengths distinct.

State space: chord subsets, extended in lexicographic order.  Adding
chords only adds cycles, so a chord that repeats a length at a node does
so in its whole subtree: each node tests its candidates once and passes
the survivors down.  A chord added to the cycle plus j chords closes at
least j + 2 cycles (its two arcs, and a path through each chosen chord
using no other), all of distinct lengths in 3..n-1, so k chords need
k(k + 3)/2 <= n - 3, strictly for k >= 3 (see ``chord_cap``).  Only
subsets least in their orbit under the 2n dihedral relabelings are
expanded (minimality is hereditary under removal of the largest chord).

Forward check: a survivor c handed to the child that adds chord x keeps
the cycles its test found, F(c), and gains the one or two cycles through
c and x alone, whose lengths T(c, x) are arithmetic in the four
endpoints.  So before its own test, c is known to add K(c) = F(c) + T(c, x).
The child drops c when K(c) repeats a length or meets one in use (its
test would fail).  On the bare cycle K(c) is c's two arcs, and beside one
chord it is all that c would add, so depths 0 and 1 run no path walk.
One gate decides whether a child is walked: ``_can_fit`` on its pool.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import graphs, oracle
from .graphs import ChordedCycleGraph

DEFAULT_NODE_BUDGET = 10_000_000


class ExactResult(NamedTuple):
    """Outcome of one search run.

    g_value = n + (maximum chord count found); witness is the first maximum
    subset in lexicographic order, which makes reruns byte-identical.
    exhaustive is False only when the node budget cut the search short;
    the witness is then the best set found, or the first-fit star if larger.
    """

    n: int
    g_value: int
    witness: ChordedCycleGraph
    nodes_explored: int
    exhaustive: bool


def chord_cap(n: int) -> int:
    """The most chords a repeat-free n-cycle can carry: the largest k with
    k(k + 3)/2 <= n - 3, less one at zero slack, k(k + 3)/2 = n - 3, k >= 3.

    k chords close at least 1 + k(k + 3)/2 cycles.  Equality needs chords
    that do not cross (a crossing pair alone closes two cycles) and whose
    k + 1 faces form a path in the dual tree: the cycles are its subtrees,
    and among trees the path has the fewest (Szekely & Wang, 2005).  With
    faces F(0)..F(k) in path order, the k + 2 marks Q(-1) = 0, Q(t) =
    Q(t - 1) + |F(t)| - 2 span n - 2, and each cycle has length
    Q(j) - Q(i - 1) + 2.  At zero slack every length 3..n occurs once, so
    the marks form a perfect Golomb ruler, and none has more than 4 marks
    (Golomb; Drakakis, 2009): k <= 2."""
    k = (math.isqrt(8 * n - 15) - 3) // 2
    return k - 1 if k >= 3 and k * (k + 3) == 2 * (n - 3) else k


def _is_canonical(n: int, chords: list[tuple[int, int]]) -> bool:
    """Whether the ascending ``chords`` are least in their orbit under the 2n
    rotations and reflections.  With d the least cyclic span of a chord, the
    least image starts with (1, 1 + d), and only a relabeling taking a chord
    of span d onto it can reach that: a rotation and a reflection for each
    direction in which the chord spans d."""
    span = min(min(v - u, n - v + u) for u, v in chords)
    for u, v in chords:
        for start, end in ((u, v), (v, u)):
            if (end - start) % n != span:
                continue
            for sign, offset in ((1, -start), (-1, end)):  # start -> 1, end -> 1 + span
                image = []
                for a, b in chords:
                    a, b = (sign * a + offset) % n + 1, (sign * b + offset) % n + 1
                    image.append((a, b) if a < b else (b, a))
                if sorted(image) < chords:
                    return False
    return True


def _can_fit(pool: list[tuple[tuple[int, int], int]], need: int, free: int) -> bool:
    """Whether ``need`` more chords from ``pool`` might fit in ``free``
    lengths.  Each entry is (candidate, K), K a bit set of lengths the
    candidate is known to add.  Each later chord also closes a cycle
    through each earlier one, so the need smallest |K| plus C(need, 2) must
    fit, and for two or more chords some pair with disjoint K sets must
    have |K_a| + |K_b| + 1 <= free.  So the child adding a chord beside
    ``depth`` others never fits with fewer later survivors than need (its
    pool is a subset of them), nor when need(2 depth + need + 5) > 2 free:
    each K holds at least depth + 3 lengths, its fresh ones (at least
    depth + 2) and a new two-chord one."""
    if len(pool) < need:
        return False
    ranked = sorted((known.bit_count(), known) for _, known in pool)
    if sum(size for size, _ in ranked[:need]) + need * (need - 1) // 2 > free:
        return False
    if need < 2:
        return True
    for position, (size, known) in enumerate(ranked):
        for other_size, other in ranked[position + 1:]:
            if size + other_size + 1 > free:
                break
            if not known & other:
                return True
    return False


def _new_cycle_lengths(n: int, chords: list[tuple[int, int]], u: int, v: int,
                       used: int) -> int | None:
    """Lengths of all cycles the chord {u, v} would add to the n-cycle plus
    ``chords``, one per simple u-v path, as a bit set (bit L for length L);
    None as soon as a new length repeats one in ``used`` or another new one.
    Both outcomes depend only on the multiset of lengths, so walk order
    cannot change them.  One stack of (point, path as a bit set, length)
    states walks the cycle contracted to u, v and the chord endpoints: an arc
    between consecutive points is one edge weighted by its length, a chord 1."""
    points = sorted({u, v}.union(*chords))
    around = {point: [(before, (point - before) % n), (after, (after - point) % n)]
              for before, point, after in zip(points[-1:] + points[:-1], points,
                                              points[1:] + points[:1])}
    for a, b in chords:
        around[a].append((b, 1))
        around[b].append((a, 1))
    fresh = 0
    stack = [(u, 1 << u, 1)]  # the chord {u, v} counts as one edge
    while stack:
        point, path, total = stack.pop()
        for other, weight in around[point]:
            if other == v:
                bit = 1 << (total + weight)
                if (used | fresh) & bit:
                    return None
                fresh |= bit
            elif not path >> other & 1:
                stack.append((other, path | 1 << other, total + weight))
    return fresh


def _two_chord_lengths(n: int, first: tuple[int, int], second: tuple[int, int]) -> int:
    """Lengths of the cycles of the n-cycle that use both chords and no
    other, as a bit set; ``first`` < ``second``, the order of the candidate
    list.  With (a, b) < (c, d): side by side (b <= c), one cycle through
    the outer arcs; else ``inner`` through the arcs a..c and b..d, alone
    when the chords nest or share an endpoint, and with n + 4 - inner when
    they cross (0 when the two coincide)."""
    (a, b), (c, d) = first, second
    if b <= c:
        return 1 << (2 + c - b + n - d + a)
    inner = 2 + c - a + abs(d - b)
    if a < c < b < d:
        return 1 << inner ^ 1 << (n + 4 - inner)
    return 1 << inner


def _child_pool(n: int, chord: tuple[int, int], used: int,
                later: list[tuple[tuple[int, int], int]]) -> list[tuple[tuple[int, int], int]]:
    """The forward check: the pool of the child that adds ``chord``, built
    from the (candidate, fresh) survivors after it.  A candidate keeps its
    fresh lengths and gains T(candidate, chord); it is dropped when these
    repeat or meet ``used``."""
    pool = []
    for candidate, fresh in later:
        pair = _two_chord_lengths(n, chord, candidate)
        if pair and not (pair | fresh) & used and not pair & fresh:
            pool.append((candidate, fresh | pair))
    return pool


def _first_fit_star(n: int) -> tuple[tuple[int, int], ...]:
    """Chords {1, a}, each anchor a = 3, 4, ... taken when the closed-form
    census stays repeat-free: a witness found without a single repeat test."""
    anchors: tuple[int, ...] = ()
    for anchor in range(3, n):
        trial = anchors + (anchor,)
        if not oracle.has_repeat(graphs.predicted_spectrum(n, trial)):
            anchors = trial
    return tuple((1, a) for a in anchors)


def exact_g(n: int, budget: int = DEFAULT_NODE_BUDGET) -> ExactResult:
    """Maximum edges of a repeat-free graph made of the labeled n-cycle
    plus chords, with the lexicographically least maximum witness.

    Depth-first over chord subsets in lexicographic order; the first
    witness of each size found is therefore the least one, since the bounds
    only cut subtrees that cannot beat the incumbent.  Each candidate
    tried counts as one node, whether by a repeat test
    (``_new_cycle_lengths``) or, at depth 0 or 1, by its known lengths, and
    ``budget`` caps the number of nodes.
    A run is exhaustive exactly when ``nodes_explored <= budget``: a cut run
    counts the candidate it stops at untested, so it reports budget + 1
    nodes, and the larger of its incumbent and the first-fit star, which
    costs no repeat test.

    n is capped at 62, though the set-up before the first budget check is
    only the O(n^2) candidate pool: uncapped, ``budget=1`` took 3 ms at
    n = 62 and 19 ms at n = 200 on a shared 2-vCPU host.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if not 3 <= n <= 62:
        raise ValueError("n must lie in 3..62")

    cap = chord_cap(n)
    best: tuple[tuple[int, int], ...] = ()
    nodes = 0

    def walk(pool: list[tuple[tuple[int, int], int]], chosen: list[tuple[int, int]],
             used: int) -> None:
        """pool: (chord, K) in lexicographic order, K a bit set of lengths the
        chord is known to add beside ``chosen`` (ascending, lengths ``used``);
        the parent has made every cut."""
        nonlocal best, nodes
        depth = len(chosen)
        survivors = []  # (chord, its fresh lengths as a bit set)
        for chord, known in pool:
            nodes += 1
            if nodes > budget:
                return
            # beside at most one chord x, a candidate's cycles avoid x or use x
            # alone, so K is exactly what its test would find (0 if it repeats)
            fresh = (known or None) if depth < 2 else _new_cycle_lengths(n, chosen, *chord, used)
            if fresh is not None:
                survivors.append((chord, fresh))
        for position, (chord, fresh) in enumerate(survivors):
            child = chosen + [chord]
            if not _is_canonical(n, child):
                continue
            if len(child) > len(best):
                best = tuple(child)
            child_used = used | fresh
            pool = _child_pool(n, chord, child_used, survivors[position + 1:])
            # the child needs len(best) - depth chords to beat the incumbent,
            # in the lengths 3..n-1 not yet used
            if _can_fit(pool, len(best) - depth, n - 2 - child_used.bit_count()):
                walk(pool, child, child_used)
            if nodes > budget or len(best) == cap:
                return

    if cap:  # the root's two arcs, 0 when they have one length
        walk([((u, v), 1 << (v - u + 1) ^ 1 << (n - v + u + 1))
              for u in range(1, n + 1) for v in range(u + 2, n + 1) if (u, v) != (1, n)],
             [], 1 << n)  # bit n: the n-cycle itself
    star = _first_fit_star(n) if nodes > budget else ()
    # max keeps the search's own set on a tie
    chords = max(best, star, key=len)
    witness = ChordedCycleGraph(n, chords)
    spectrum = oracle.enumerate_cycles(witness)
    if oracle.has_repeat(spectrum):
        raise oracle.InternalInconsistency("witness re-check found a repeated length")
    return ExactResult(n=n,
                       g_value=n + len(chords),
                       witness=witness,
                       nodes_explored=nodes,
                       exhaustive=nodes <= budget)
