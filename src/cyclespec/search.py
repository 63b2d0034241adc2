"""Exhaustive search for the maximum number of chords a labeled n-cycle
admits while keeping all cycle lengths distinct.

State space: chord subsets, extended in lexicographic order.  Three facts
keep it small.  A graph that already repeats a length never recovers,
because adding chords only adds cycles.  A repeat-free graph satisfies
C(k, 2) < n, capping the depth.  And the property is invariant under the
2n dihedral relabelings of the cycle, so only subsets lexicographically
minimal within their orbit are expanded; minimality is hereditary under
removal of the largest chord, so the canonical subsets form a subtree.
Chords are handled as indices into the lexicographic candidate list, and
each relabeling as a table from candidate index to image index.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .graphs import ChordedCycleGraph

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of one search run.

    g_value = n + (maximum chord count found); witness is the first maximum
    subset in lexicographic order, which makes reruns byte-identical.
    exhaustive is False only when the node budget truncated the search.
    """

    n: int
    g_value: int
    witness: ChordedCycleGraph
    nodes_explored: int
    exhaustive: bool


def max_chords(n: int) -> int:
    """Largest k with C(k, 2) < n."""
    k = 1
    while (k + 1) * k // 2 < n:
        k += 1
    return k


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


def exact_g(n: int, budget: int = DEFAULT_NODE_BUDGET,
            canonical: bool = True) -> ExactResult:
    """Maximum edges of a repeat-free graph made of the labeled n-cycle
    plus chords, with the lexicographically least maximum witness.

    Depth-first over chord subsets in lexicographic order; the first
    witness of each size found is therefore the least one.  ``canonical``
    toggles the dihedral-orbit pruning (results never change, node counts
    do).  n = 20 is exhaustive after 177,510 nodes, well within the
    default budget.

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
    depth_cap = max_chords(n)
    images = _image_tables(candidates, dihedral_maps(n)) if canonical else []

    adjacency: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in ChordedCycleGraph(n).cycle_edges():
        adjacency[u].append(v)
        adjacency[v].append(u)

    used_lengths = {n}
    chosen: list[int] = []  # candidate indices, ascending
    best: tuple[int, ...] = ()
    nodes = 0
    truncated = False

    def walk(start: int) -> None:
        nonlocal best, nodes, truncated
        if len(chosen) == depth_cap:
            return
        for index in range(start, len(candidates)):
            if len(chosen) + (len(candidates) - index) <= len(best):
                return  # cannot beat the incumbent even taking all the rest
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            u, v = candidates[index]
            fresh = _new_cycle_lengths(adjacency, u, v, used_lengths)
            if fresh is None:
                continue
            if images and not _is_canonical(chosen + [index], images):
                continue
            chosen.append(index)
            used_lengths.update(fresh)
            adjacency[u].append(v)
            adjacency[v].append(u)
            if len(chosen) > len(best):
                best = tuple(chosen)
            walk(index + 1)
            adjacency[u].remove(v)
            adjacency[v].remove(u)
            used_lengths.difference_update(fresh)
            chosen.pop()
            if truncated:
                return

    walk(0)
    witness = ChordedCycleGraph(n, tuple(candidates[index] for index in best))
    spectrum = oracle.enumerate_cycles(witness)
    if oracle.has_repeated_length(spectrum) is not None:
        raise oracle.InternalInconsistency("witness re-check found a repeated length")
    return ExactResult(n=n,
                       g_value=n + len(best),
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
