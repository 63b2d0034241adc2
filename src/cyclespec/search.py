"""Exhaustive search for the maximum number of chords a labeled n-cycle
admits while keeping all cycle lengths distinct.

State space: chord subsets, extended in lexicographic order.  Adding
chords only adds cycles, so a chord that repeats a length at a node does
so in its whole subtree: each node tests its candidates once and passes
the survivors down.  A chord added to the cycle plus j chords closes at
least j + 2 cycles (its two arcs, and a path through each chosen chord
using no other), all of distinct lengths in 3..n-1, so k chords need
k(k + 3)/2 <= n - 3.  Only subsets least in their orbit under the 2n
dihedral relabelings are expanded (minimality is hereditary under removal
of the largest chord).  Chords are indices into the lexicographic
candidate list, and each relabeling a table of image indices.

Forward check: a survivor c handed to the child that adds chord x keeps
the cycles its test found, F(c), and gains the one or two cycles through
c and x alone, whose lengths T(c, x) are arithmetic in the four
endpoints.  So before its own test, c is known to add K(c) = F(c) + T(c, x).
The child drops c when K(c) repeats a length or meets one in use (its
test would fail), and is cut before any test when the K sets show that
the chords it still needs cannot fit in the free lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import graphs, oracle
from .graphs import ChordedCycleGraph

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of one search run.

    g_value = n + (maximum chord count found); witness is the first maximum
    subset in lexicographic order, which makes reruns byte-identical.
    exhaustive is False only when the node budget truncated the search;
    the witness is then the best set found, or the first-fit star if larger.
    """

    n: int
    g_value: int
    witness: ChordedCycleGraph
    nodes_explored: int
    exhaustive: bool


def chord_cap(n: int) -> int:
    """Largest k with k(k + 3)/2 <= n - 3, the most chords a repeat-free
    n-cycle can carry."""
    return (math.isqrt(8 * n - 15) - 3) // 2


def dihedral_maps(n: int) -> list[tuple[int, ...]]:
    """The 2n rotation/reflection relabelings, as lookup tables indexed by vertex."""
    maps = []
    for shift in range(n):
        rotation = [0] * (n + 1)
        reflection = [0] * (n + 1)
        for v in range(1, n + 1):
            rotation[v] = (v - 1 + shift) % n + 1
            reflection[v] = (shift - (v - 1)) % n + 1
        maps.append(tuple(rotation))
        maps.append(tuple(reflection))
    return maps


def _image_tables(candidates: list[tuple[int, int]],
                  maps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """For each non-identity map (maps[0] is the identity), the candidate
    index of the image of each candidate chord."""
    position = {pair: index for index, pair in enumerate(candidates)}
    return [tuple(position[min(mapping[u], mapping[v]), max(mapping[u], mapping[v])]
                  for u, v in candidates)
            for mapping in maps[1:]]


def _is_canonical(trial: list[int], images: list[tuple[int, ...]]) -> bool:
    """Whether the ascending candidate indices ``trial`` are least in their
    orbit.  Candidates are in lexicographic order, so comparing sorted index
    lists compares the sorted chord lists."""
    for table in images:
        if sorted([table[index] for index in trial]) < trial:
            return False
    return True


def _can_fit(pool: list[tuple[int, int]], need: int, free: int) -> bool:
    """Whether ``need`` more chords from ``pool`` might fit in ``free``
    lengths.  Each entry is (candidate, K), K a bit set of lengths the
    candidate is known to add.  Each later chord also closes a cycle
    through each earlier one, so the need smallest |K| plus C(need, 2) must
    fit, and for two or more chords some pair with disjoint K sets must
    have |K_a| + |K_b| + 1 <= free."""
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


def _new_cycle_lengths(adjacency, u: int, v: int, used: int) -> int | None:
    """Lengths of all cycles the chord {u, v} would add, one per simple u-v
    path already present, as a bit set (bit L for length L); None as soon
    as a new length repeats one in the bit set ``used`` or another new one."""
    fresh = 0
    path = [u]
    on_path = {u}
    pending = [iter(adjacency[u])]
    while pending:
        step = next(pending[-1], None)
        if step is None:
            pending.pop()
            on_path.discard(path.pop())
            continue
        if step == v:
            bit = 1 << (len(path) + 1)
            if (used | fresh) & bit:
                return None
            fresh |= bit
        elif step not in on_path:
            path.append(step)
            on_path.add(step)
            pending.append(iter(adjacency[step]))
    return fresh


def _two_chord_lengths(n: int, first: tuple[int, int],
                       second: tuple[int, int]) -> tuple[int, ...]:
    """Lengths of the cycles of the n-cycle that use both chords and no
    other: two when the chords cross, one otherwise."""
    (a, b), (c, d) = sorted((first, second))
    if a == c:
        return (2 + d - b,)
    if b == d:
        return (2 + c - a,)
    if b == c:
        return (2 + n - d + a,)
    if d < b:
        return (2 + c - a + b - d,)  # nested
    if b < c:
        return (2 + c - b + n - d + a,)  # side by side
    return (2 + c - a + d - b, 2 + b - c + n - d + a)  # crossing


def _first_fit_star(n: int) -> tuple[tuple[int, int], ...]:
    """Chords {1, a}, each anchor a = 3, 4, ... taken when the closed-form
    census stays repeat-free: a witness found without a single repeat test."""
    anchors: tuple[int, ...] = ()
    for anchor in range(3, n):
        trial = anchors + (anchor,)
        if oracle.has_repeated_length(graphs.predicted_spectrum(n, trial)) is None:
            anchors = trial
    return graphs.build_graph(n, anchors).chords


def exact_g(n: int, budget: int = DEFAULT_NODE_BUDGET) -> ExactResult:
    """Maximum edges of a repeat-free graph made of the labeled n-cycle
    plus chords, with the lexicographically least maximum witness.

    Depth-first over chord subsets in lexicographic order; the first
    witness of each size found is therefore the least one, since the bounds
    only cut subtrees that cannot beat the incumbent.  A node is one repeat
    test (``_new_cycle_lengths``), and ``budget`` caps the number of them.
    A run cut by the budget reports the larger of its incumbent and the
    first-fit star, which costs no repeat test.

    n is capped at 62 because the image tables are built before the node
    budget is first checked, in time growing like n^3 (on a shared 2-vCPU
    host, about 0.2 s at n = 62, 1.5 s at n = 120 and 8 s at n = 200).
    Without the cap, ``exact-g 1000 --budget 1`` would hang.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if not 3 <= n <= 62:
        raise ValueError("n must lie in 3..62")

    candidates = [(u, v)
                  for u in range(1, n + 1)
                  for v in range(u + 1, n + 1)
                  if v - u != 1 and not (u == 1 and v == n)]
    cap = chord_cap(n)
    images = _image_tables(candidates, dihedral_maps(n))

    adjacency: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in ChordedCycleGraph(n).cycle_edges():
        adjacency[u].append(v)
        adjacency[v].append(u)

    used = 1 << n  # the cycle lengths in use, as a bit set
    chosen: list[int] = []  # candidate indices, ascending
    best: tuple[int, ...] = ()
    nodes = 0
    truncated = False

    def walk(pool: list[tuple[int, int]]) -> None:
        """pool: (candidate, K) in candidate order, K a bit set of lengths
        the candidate is known to add here."""
        nonlocal best, nodes, truncated, used
        depth = len(chosen)
        free = n - 2 - used.bit_count()  # lengths in 3..n-1 not yet used
        need = len(best) + 1 - depth  # chords still needed to beat the incumbent
        if need * (2 * depth + need + 3) > 2 * free:
            return  # a chord added to j chords closes at least j + 2 cycles;
            # so a child of a node at the cap returns here, before any test
        if not _can_fit(pool, need, free):
            return
        survivors = []  # (candidate, its fresh lengths as a bit set)
        for index, _ in pool:
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            u, v = candidates[index]
            fresh = _new_cycle_lengths(adjacency, u, v, used)
            if fresh is not None:
                survivors.append((index, fresh))
        if not _can_fit(survivors, need, free):
            return
        for position, (index, fresh) in enumerate(survivors):
            if depth + len(survivors) - position <= len(best):
                return
            if not _is_canonical(chosen + [index], images):
                continue
            # a later survivor keeps its fresh cycles and gains those through
            # both chords; a repeat among them fails its test in the child
            child_used = used | fresh
            child_pool = []
            for later, later_fresh in survivors[position + 1:]:
                pair = 0  # T(later, index) as a bit set, 0 if its two lengths coincide
                for length in _two_chord_lengths(n, candidates[later], candidates[index]):
                    pair = 0 if pair >> length & 1 else pair | 1 << length
                if pair and not (pair | later_fresh) & child_used and not pair & later_fresh:
                    child_pool.append((later, later_fresh | pair))
            u, v = candidates[index]
            chosen.append(index)
            used = child_used
            adjacency[u].append(v)
            adjacency[v].append(u)
            if len(chosen) > len(best):
                best = tuple(chosen)
            walk(child_pool)
            adjacency[u].remove(v)
            adjacency[v].remove(u)
            used ^= fresh
            chosen.pop()
            if truncated or len(best) == cap:
                return

    walk([(index, 0) for index in range(len(candidates))])
    star = _first_fit_star(n) if truncated else ()
    # max keeps the search's own set on a tie
    chords = max(tuple(candidates[index] for index in best), star, key=len)
    witness = ChordedCycleGraph(n, chords)
    spectrum = oracle.enumerate_cycles(witness)
    if oracle.has_repeated_length(spectrum) is not None:
        raise oracle.InternalInconsistency("witness re-check found a repeated length")
    return ExactResult(n=n,
                       g_value=n + len(chords),
                       witness=witness,
                       nodes_explored=nodes,
                       exhaustive=not truncated)


def max_single_vertex_chords(n: int) -> tuple[int, tuple[int, ...]]:
    """Largest anchor set with all predicted cycle lengths distinct, and the
    lexicographically first witness of that size.

    Anchors tried in increasing order; each new anchor a contributes lengths
    a, n + 2 - a, and a - s + 2 per earlier anchor s, all of which must be
    fresh.  The maximum grows like the largest Sidon set in {3..n-1}.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    used = {n}

    def walk(lowest: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        for anchor in range(lowest, n):
            if len(chosen) + (n - anchor) <= len(best):
                return
            fresh = []
            ok = True
            for length in [anchor, n + 2 - anchor] + [anchor - s + 2 for s in chosen]:
                if length in used or length in fresh:
                    ok = False
                    break
                fresh.append(length)
            if not ok:
                continue
            chosen.append(anchor)
            used.update(fresh)
            walk(anchor + 1)
            used.difference_update(fresh)
            chosen.pop()

    walk(3)
    return len(best), best
