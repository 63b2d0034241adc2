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


def _new_cycle_lengths(adjacency, u: int, v: int, used: set[int]) -> list[int] | None:
    """Lengths of all cycles the chord {u, v} would add, one per simple u-v
    path already present; None as soon as a new length repeats one in
    ``used`` or another new one."""
    fresh: list[int] = []
    fresh_set: set[int] = set()
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
            length = len(path) + 1
            if length in used or length in fresh_set:
                return None
            fresh_set.add(length)
            fresh.append(length)
        elif step not in on_path:
            path.append(step)
            on_path.add(step)
            pending.append(iter(adjacency[step]))
    return fresh


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
    n = 22 is exhaustive after 663 nodes.

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

    used_lengths = {n}
    chosen: list[int] = []  # candidate indices, ascending
    best: tuple[int, ...] = ()
    nodes = 0
    truncated = False

    def walk(pool: list[int]) -> None:
        nonlocal best, nodes, truncated
        depth = len(chosen)
        free = n - 2 - len(used_lengths)  # lengths in 3..n-1 not yet used
        need = len(best) + 1 - depth  # chords still needed to beat the incumbent
        if need * (2 * depth + need + 3) > 2 * free:
            return  # a chord added to j chords closes at least j + 2 cycles;
            # so a child of a node at the cap returns here, before any test
        survivors = []
        for index in pool:
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            u, v = candidates[index]
            fresh = _new_cycle_lengths(adjacency, u, v, used_lengths)
            if fresh is not None:
                survivors.append((index, fresh))
        sizes = sorted(len(fresh) for _, fresh in survivors)
        if len(sizes) < need or sum(sizes[:need]) + need * (need - 1) // 2 > free:
            return  # each later chord also closes a cycle through each earlier one
        for position, (index, fresh) in enumerate(survivors):
            if depth + len(survivors) - position <= len(best):
                return
            if not _is_canonical(chosen + [index], images):
                continue
            u, v = candidates[index]
            chosen.append(index)
            used_lengths.update(fresh)
            adjacency[u].append(v)
            adjacency[v].append(u)
            if len(chosen) > len(best):
                best = tuple(chosen)
            walk([later for later, _ in survivors[position + 1:]])
            adjacency[u].remove(v)
            adjacency[v].remove(u)
            used_lengths.difference_update(fresh)
            chosen.pop()
            if truncated or len(best) == cap:
                return

    walk(list(range(len(candidates))))
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
