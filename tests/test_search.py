"""Exhaustive search validated against naive enumeration and known values."""

import functools
import itertools
import math
import pathlib
import random
import re
from collections import Counter

import pytest

from cyclespec import oracle, search
from cyclespec.graphs import ChordedCycleGraph
from references import (adjacency, bits, census_repeat, chord_pool, counting_cap, dihedral_maps,
                        is_sidon, lengths, long_beyond, max_single_vertex_chords, naive_g,
                        networkx_spectrum, pair_canonical, plain_search, relabel,
                        vertex_new_cycle_lengths)


README = pathlib.Path(__file__).parents[1] / "README.md"
# the README's table of exact values: n -> (g(n), least witness chords)
README_ROWS = {int(n): (int(g), tuple(tuple(map(int, chord.split(",")))
                                      for chord in re.findall(r"\{(\d+,\d+)\}", chords)))
               for n, g, chords in re.findall(r"^\| (\d+) +\| (\d+) +\| (.*)\|$",
                                              README.read_text(encoding="utf-8"), re.M)}
# the nodes the search explores beyond the golden CLI grid (frozen: a prune
# that moves them is a change of the search, not a refactoring)
FROZEN_NODES = {18: 2308, 19: 378, 20: 391, 21: 517, 22: 499, 23: 540, 24: 25047,
                25: 42540, 26: 64937, 27: 2366, 28: 7112, 29: 1082, 30: 1263,
                31: 796515, 38: 11774}
# the nodes at zero-slack n under the plain counting cap, without the cut of
# ``search.chord_cap``
PLAIN_CAP_NODES = {12: 106, 17: 1068, 23: 17629, 30: 465707}


def _star(n):
    """The chords {1, a} on the single-vertex optimum's anchors."""
    return tuple((1, a) for a in max_single_vertex_chords(n)[1])


def _sharp_bound(n):
    """n + (sqrt(8n - 15) - 3)/2, the edge bound that ``counting_cap`` floors."""
    return n + (math.sqrt(8 * n - 15) - 3) / 2


def _crosses(first, second):
    (a, b), (c, d) = first, second
    return a < c < b < d or c < a < d < b


def _separates(chord, first, second):
    """Whether ``first`` and ``second``, neither crossing ``chord``, lie on
    different sides of it (a side holds the chords with both ends on one
    arc of ``chord``)."""
    a, b = chord
    return (a <= first[0] and first[1] <= b) != (a <= second[0] and second[1] <= b)


def _faces_form_a_path(chords):
    """Whether no two chords cross and, of every three, one separates the
    other two: then the faces are the nodes of a path, joined by chords."""
    return (not any(_crosses(x, y) for x, y in itertools.combinations(chords, 2))
            and all(_separates(x, y, z) or _separates(y, x, z) or _separates(z, x, y)
                    for x, y, z in itertools.combinations(chords, 3)))


def zero_slack_lemma_mismatches(n_max, k_max=4):
    """Check the lemma behind ``search.chord_cap`` on every chord set of at
    most ``k_max`` chords on the n-cycle, n = 5..n_max: k chords close at
    least 1 + k(k + 3)/2 cycles, and exactly that many when, and only when,
    their faces form a path.  Returns the (n, chords, cycle count) that
    break it, and how many sets reach the bound."""
    mismatches = []
    tight = 0
    for n in range(5, n_max + 1):
        pool = chord_pool(n)
        for k in range(k_max + 1):
            least = 1 + k * (k + 3) // 2
            for chords in itertools.combinations(pool, k):
                count = len(oracle.enumerate_cycles(ChordedCycleGraph(n, chords)))
                if count < least or (count == least) != _faces_form_a_path(chords):
                    mismatches.append((n, chords, count))
                tight += count == least
    return mismatches, tight


def crossing_lemma_counts(n):
    """Check the crossing lemma on every set of three chords on the n-cycle,
    two of which cross: at least one cycle uses exactly those three chords.
    A cycle uses some subset of the chords, so by inclusion-exclusion over
    the 8 subsets T, the cycles that use all three number the sum of
    (-1)^(3 - |T|) times the cycles T closes.  Returns the (chords, count)
    that break the lemma, how many sets were checked, and how many close
    exactly one such cycle."""
    @functools.cache
    def cycles(chords):
        return len(oracle.enumerate_cycles(ChordedCycleGraph(n, chords)))

    failures = []
    checked = single = 0
    for chords in itertools.combinations(chord_pool(n), 3):
        if not any(_crosses(x, y) for x, y in itertools.combinations(chords, 2)):
            continue
        count = sum((-1) ** (3 - k) * cycles(subset)
                    for k in range(4) for subset in itertools.combinations(chords, k))
        if count < 1:
            failures.append((chords, count))
        checked += 1
        single += count == 1
    return failures, checked, single


# n: (three-chord sets with a crossing, those closing exactly one cycle
# through all three); 34,310 and 27,446 in all
CROSSING_LEMMA_COUNTS = {6: (70, 66), 7: (280, 252), 8: (840, 728), 9: (2100, 1764),
                         10: (4620, 3780), 11: (9240, 7392), 12: (17160, 13464)}


class TestHelpers:
    def test_chord_cap(self):
        # the counting bound, one less at zero slack, k(k + 3)/2 = n - 3, k >= 3
        zero_slack = []
        for n in range(3, 201):
            k = counting_cap(n)
            assert k * (k + 3) // 2 <= n - 3 < (k + 1) * (k + 4) // 2
            if k >= 3 and k * (k + 3) // 2 == n - 3:
                zero_slack.append(n)
                assert search.chord_cap(n) == k - 1
            else:
                assert search.chord_cap(n) == k
        assert zero_slack[:7] == [12, 17, 23, 30, 38, 47, 57]
        assert len(zero_slack) == 16
        # zero slack at k = 2: the uniquely pancyclic n = 8 reaches its cap
        assert search.chord_cap(8) == 2 == search.exact_g(8).g_value - 8

    @pytest.mark.parametrize("n_max,tight", [
        (9, 2617),  # 28,808 chord sets
        pytest.param(11, 18903, marks=pytest.mark.long),
    ])
    def test_zero_slack_lemma(self, n_max, tight):
        assert zero_slack_lemma_mismatches(n_max) == ([], tight)

    @pytest.mark.parametrize("n", sorted(CROSSING_LEMMA_COUNTS))
    def test_crossing_lemma(self, n):
        # whether a cycle uses exactly a given chord set depends only on the
        # circular order of the chords' endpoints, and every order of three
        # chords occurs by n = 12: n = 6..12 proves the lemma for every n
        failures, checked, single = crossing_lemma_counts(n)
        assert failures == []
        assert (checked, single) == CROSSING_LEMMA_COUNTS[n]

    def test_counting_lemma_on_random_chord_sets(self):
        # k chords on the n-cycle close at least 1 + k(k + 3)/2 cycles, repeats
        # or not: a chord added to j chords brings its two arcs and one path
        # through each of them
        rng = random.Random(2017)
        for n in range(5, 21):
            pool = chord_pool(n)
            for _ in range(12):
                k = rng.randrange(0, min(6, len(pool)) + 1)
                graph = ChordedCycleGraph(n, tuple(sorted(rng.sample(pool, k))))
                assert len(oracle.enumerate_cycles(graph)) >= 1 + k * (k + 3) // 2

    def test_every_known_value_is_within_the_cap(self):
        assert sorted(README_ROWS) == [*range(3, 32), 38]
        for n, (g_value, _) in README_ROWS.items():
            assert g_value - n <= search.chord_cap(n)
            assert g_value <= _sharp_bound(n)

    def test_dihedral_maps_are_cycle_symmetries(self):
        for n in (3, 5, 8):
            maps = dihedral_maps(n)
            assert len(maps) == 2 * n
            cycle = {frozenset(e) for e in ChordedCycleGraph(n).cycle_edges()}
            for mapping in maps:
                assert sorted(mapping[1:]) == list(range(1, n + 1))
                assert {frozenset((mapping[u], mapping[v])) for u, v in cycle} == cycle

    def test_relabel_preserves_spectrum(self):
        graph = ChordedCycleGraph(9, ((1, 4), (2, 7)))
        spectrum = oracle.enumerate_cycles(graph)
        for mapping in dihedral_maps(9):
            moved = relabel(graph, mapping)
            assert oracle.enumerate_cycles(moved) == spectrum


def _assert_same_canonicity(n, subsets):
    """The search's orbit test agrees with the reference on non-empty
    subsets of the chord pool, given as ascending indices; returns how many
    were canonical."""
    pool = chord_pool(n)
    maps = dihedral_maps(n)
    canonical = 0
    for subset in subsets:
        chords = tuple(pool[index] for index in subset)
        expected = pair_canonical(chords, maps)
        assert search._is_canonical(n, list(chords)) == expected, (n, chords)
        canonical += expected
    return canonical


class TestCanonicity:
    def test_identity_comes_first(self):
        for n in (3, 5, 8):
            assert dihedral_maps(n)[0] == tuple(range(n + 1))

    @pytest.mark.parametrize("n", range(5, 12))
    def test_tables_match_pair_sorting_on_small_subsets(self, n):
        size = len(chord_pool(n))
        _assert_same_canonicity(n, (subset for k in range(1, 4)
                                    for subset in itertools.combinations(range(size), k)))

    @pytest.mark.parametrize("n", range(8, 18))
    def test_tables_match_pair_sorting_on_random_subsets(self, n):
        rng = random.Random(n)
        size = len(chord_pool(n))
        _assert_same_canonicity(n, (sorted(rng.sample(range(size), rng.choice((4, 5))))
                                    for _ in range(2000)))

    @pytest.mark.parametrize("n", range(6, 21, 2))
    def test_half_span_chords_match_pair_sorting(self, n):
        # a chord of span n/2 spans it both ways round, so four relabelings
        # take it onto (1, 1 + n/2): sets of such chords alone, and sets
        # where one sits beside shorter chords
        pool = chord_pool(n)
        halves = [index for index, (u, v) in enumerate(pool) if 2 * (v - u) == n]
        assert len(halves) == n // 2
        alone = [subset for k in range(1, 5) for subset in itertools.combinations(halves, k)]
        assert 0 < _assert_same_canonicity(n, alone) < len(alone)
        rng = random.Random(n)
        mixed = [sorted({rng.choice(halves)}
                        | set(rng.sample(range(len(pool)), rng.randrange(1, 4))))
                 for _ in range(500)]
        assert _assert_same_canonicity(n, mixed) > 0


class TestIncrementalLengths:
    """``_new_cycle_lengths`` on the contracted cycle, against the
    vertex-by-vertex reference and against full re-enumeration."""

    def test_single_chord_on_bare_cycle(self):
        assert lengths(search._new_cycle_lengths(7, (), 1, 3, bits([7]))) == [3, 6]
        assert lengths(search._new_cycle_lengths(7, (), 2, 6, bits([7]))) == [4, 5]
        assert search._new_cycle_lengths(7, (), 2, 6, bits([7, 4])) is None
        # two arcs of equal length are two parallel edges, and repeat
        assert search._new_cycle_lengths(8, (), 2, 6, bits([8])) is None

    def test_matches_full_reenumeration(self):
        rng = random.Random(1234)
        outcomes = {True: 0, False: 0}
        while min(outcomes.values()) < 100:
            n = rng.randrange(5, 14)
            pool = chord_pool(n)
            chords = tuple(sorted(rng.sample(pool, rng.randrange(0, min(3, len(pool)) + 1))))
            graph = ChordedCycleGraph(n, chords)
            before = list(oracle.enumerate_cycles(graph))
            free = [e for e in pool if e not in chords]
            if oracle.has_repeat(before) or not free:
                continue
            u, v = rng.choice(free)
            after = list(oracle.enumerate_cycles(
                ChordedCycleGraph(n, tuple(sorted(chords + ((u, v),))))))
            fresh = search._new_cycle_lengths(n, chords, u, v, bits(before))
            repeats = oracle.has_repeat(after)
            assert (fresh is None) == repeats, (n, chords, (u, v))
            if fresh is not None:
                assert sorted(before + lengths(fresh)) == after, (n, chords, (u, v))
            outcomes[repeats] += 1

    def test_contracted_walk_matches_vertex_walk_and_oracle(self):
        # any chord set, repeat-free or not, hubs and up to one chord past
        # the cap included, and any lengths in use: the new chord's lengths
        # are the spectrum it adds, the multiset difference of the two
        # enumerations, and the test fails exactly when they repeat or meet
        # a used length
        rng = random.Random(3041)
        seen = Counter()
        for n in range(5, 41):
            pool = chord_pool(n)
            most = min(max(6, search.chord_cap(n) + 1), len(pool) - 1)
            for _ in range(12):
                if n >= 7 and rng.random() < 0.25:  # a hub: >= 4 chords at one vertex
                    hub = rng.randrange(1, n + 1)
                    chords = rng.sample([chord for chord in pool if hub in chord],
                                        rng.randrange(4, min(most, n - 3) + 1))
                    rest = [chord for chord in pool if chord not in chords]
                    chords = sorted(chords + rng.sample(rest, rng.randrange(most - len(chords) + 1)))
                else:
                    chords = sorted(rng.sample(pool, rng.randrange(0, most + 1)))
                degrees = Counter(end for chord in chords for end in chord)
                ends = sorted(degrees)
                free = [chord for chord in pool if chord not in chords]
                if ends and rng.random() < 0.5:  # start at a chord endpoint
                    start = rng.choice(ends)
                    free = [chord for chord in free if start in chord] or free
                u, v = rng.choice(free)
                graph = ChordedCycleGraph(n, tuple(chords))
                added = Counter(oracle.enumerate_cycles(
                    ChordedCycleGraph(n, tuple(sorted(chords + [(u, v)])))))
                added.subtract(oracle.enumerate_cycles(graph))
                assert min(added.values()) >= 0
                new = sorted(added.elements())
                used = rng.choice((bits([n]), bits(oracle.enumerate_cycles(graph)),
                                   bits([n, rng.choice(new)])))
                expected = (None if len(set(new)) < len(new) or used & bits(new)
                            else bits(new))
                found = search._new_cycle_lengths(n, chords, u, v, used)
                assert found == expected, (n, chords, (u, v), lengths(used))
                assert found == vertex_new_cycle_lengths(adjacency(graph), u, v, used)
                points = sorted(set(ends) | {u, v})
                neighbours = set(zip(points, points[1:])) | {(points[0], points[-1])}
                seen["repeats" if found is None else "fresh"] += 1
                seen["no chord"] += not chords
                seen["shared endpoint"] += len(ends) < 2 * len(chords)
                seen["parallel edge"] += bool(neighbours & set(chords))
                seen["u or v a chord endpoint"] += u in ends or v in ends
                seen["used meets a new length"] += bool(used & bits(new))
                seen["six chords"] += len(chords) == 6
                seen["more than six chords"] += len(chords) > 6
                seen["hub"] += max(degrees.values(), default=0) >= 4
        assert min(seen.values()) >= 20, seen
        assert len(seen) == 10, seen


def _pair_kind(first, second):
    (a, b), (c, d) = sorted((first, second))
    if len({a, b, c, d}) == 3:
        return "shared endpoint"
    if a < c < b < d:
        return "crossing"
    return "nested" if d < b else "side by side"


class _FirstChild(Exception):
    """Stops ``exact_g`` at the first pool it builds."""


class TestForwardCheck:
    """The closed-form two-chord lengths T(c, x) and the known set
    K(c) = F(c) + T(c, x) that a child of the node adding x starts from."""

    def test_two_chord_lengths_match_enumeration(self):
        # the cycles through both chords are the pair's spectrum less each
        # chord's own (the n-cycle is in all three, and T may contain n);
        # the bit set is 0 exactly when a crossing pair's two lengths
        # coincide, which happens for even n when c + d - a - b = n/2
        kinds = Counter()
        for n in range(5, 15):
            pool = chord_pool(n)
            alone = {chord: Counter(oracle.enumerate_cycles(ChordedCycleGraph(n, (chord,))))
                     for chord in pool}
            for first, second in itertools.combinations(pool, 2):
                through_both = Counter(oracle.enumerate_cycles(ChordedCycleGraph(n, (first, second))))
                through_both.subtract(alone[first])
                through_both.subtract(alone[second])
                through_both[n] += 1
                assert min(through_both.values()) >= 0, (n, first, second)
                expected = sorted(through_both.elements())
                pair = search._two_chord_lengths(n, first, second)
                assert search._two_chord_lengths(n, second, first) == pair
                if len(set(expected)) < len(expected):
                    (a, b), (c, d) = sorted((first, second))
                    assert pair == 0, (n, first, second)
                    assert _pair_kind(first, second) == "crossing" and 2 * (c + d - a - b) == n
                    kinds["coinciding"] += 1
                else:
                    assert pair == bits(expected), (n, first, second)
                kinds[_pair_kind(first, second)] += 1
        assert set(kinds) == {"shared endpoint", "crossing", "nested", "side by side", "coinciding"}

    def test_known_lengths_bound_the_child_test(self):
        # on a repeat-free graph with chords x and c both surviving, the child
        # that adds x must find every length of K(c) when c survives there,
        # and c must fail its test there whenever K(c) repeats or meets a
        # length in use
        rng = random.Random(4321)
        outcomes = Counter()
        while min(outcomes["dropped"], outcomes["survives"]) < 100:
            n = rng.randrange(5, 15)
            pool = chord_pool(n)
            chords = tuple(sorted(rng.sample(pool, rng.randrange(0, min(3, len(pool)) + 1))))
            graph = ChordedCycleGraph(n, chords)
            spectrum = oracle.enumerate_cycles(graph)
            free = [e for e in pool if e not in chords]
            if oracle.has_repeat(spectrum) or len(free) < 2:
                continue
            used = bits(spectrum)
            x, c = rng.sample(free, 2)
            fresh_x = search._new_cycle_lengths(n, chords, *x, used)
            fresh_c = search._new_cycle_lengths(n, chords, *c, used)
            if fresh_x is None or fresh_c is None:
                continue
            pair = search._two_chord_lengths(n, c, x)
            known = fresh_c | pair
            child_used = used | fresh_x
            found = search._new_cycle_lengths(n, chords + (x,), *c, child_used)
            if not pair or pair & fresh_c or child_used & known:
                assert found is None, (n, chords, x, c)
                outcomes["dropped"] += 1
            elif found is not None:
                assert known & ~found == 0, (n, chords, x, c)
                outcomes["survives"] += 1

    @pytest.mark.parametrize("n", range(4, 31))
    def test_root_arcs_match_the_repeat_test(self, n, monkeypatch):
        # on the bare cycle a chord closes only its two arcs, so the root's
        # K is their lengths, 0 where they coincide and the test repeats
        roots = []
        for u, v in chord_pool(n):
            arcs = 1 << (v - u + 1) ^ 1 << (n - v + u + 1)
            assert arcs == (search._new_cycle_lengths(n, (), u, v, 1 << n) or 0), (n, u, v)
            if arcs:
                roots.append(((u, v), arcs))
        # from n = 5 on, the root's first child {1, 3} is handed every
        # later survivor, with its K as fresh
        handed = []

        def first_child_pool(n, chord, used, later):
            handed.extend([(chord, used ^ 1 << n)] + later)
            raise _FirstChild

        monkeypatch.setattr(search, "_child_pool", first_child_pool)
        if n < 5:
            search.exact_g(n)
        else:
            with pytest.raises(_FirstChild):
                search.exact_g(n)
            assert handed == roots

    @pytest.mark.parametrize("n", range(5, 17))
    def test_known_lengths_are_exact_at_depth_one(self, n):
        # beside one chord x, a candidate c closes only its two arcs and
        # the cycles through c and x, so the child of x needs no repeat
        # test: it keeps c exactly when the test on cycle + x passes, with
        # K(c) as the lengths that test finds
        bare = bits([n])
        roots = [(chord, search._new_cycle_lengths(n, (), *chord, bare))
                 for chord in chord_pool(n)]
        roots = [(chord, fresh) for chord, fresh in roots if fresh is not None]
        outcomes = Counter()
        for x, fresh_x in roots:
            used = bare | fresh_x
            known = dict(search._child_pool(n, x, used, [root for root in roots if root[0] != x]))
            for c, _ in roots:
                if c != x:
                    found = search._new_cycle_lengths(n, (x,), *c, used)
                    assert known.get(c) == found, (n, x, c)
                    outcomes[found is None] += 1
        assert outcomes[True]
        assert bool(outcomes[False]) == (n >= 8)  # two chords fit from n = 8 on


class TestRecord:
    RESULT = ("ExactResult(n=5, g_value=6, witness=ChordedCycleGraph(n=5, chords=((1, 3),)), "
              "nodes_explored=3, exhaustive=True)")

    def test_construction_either_way(self):
        witness = ChordedCycleGraph(5, [(3, 1)])
        positional = search.ExactResult(5, 6, witness, 3, True)
        assert positional == search.ExactResult(n=5, g_value=6, witness=witness,
                                                nodes_explored=3, exhaustive=True)
        assert positional.witness.chords == ((1, 3),)

    def test_repr(self):
        result = search.ExactResult(5, 6, ChordedCycleGraph(5, [(3, 1)]), 3, True)
        assert repr(result) == self.RESULT

    def test_immutable(self):
        result = search.ExactResult(5, 6, ChordedCycleGraph(5, [(3, 1)]), 3, True)
        with pytest.raises(AttributeError):
            result.g_value = 7


class TestExactSearch:
    @pytest.mark.parametrize("n", long_beyond(22, sorted(README_ROWS)))
    def test_readme_row(self, n):
        # g(n) and the least witness, which is the star reference for n >= 4
        # (observed, not proved), the frozen node count, both edge bounds, and
        # the witness spectrum, re-derived by networkx, which repeats nothing;
        # the long run takes n = 23..31 and 38, up to about 30 s (n = 31)
        g_value, chords = README_ROWS[n]
        result = search.exact_g(n)
        assert result.exhaustive
        assert (result.g_value, result.witness.chords) == (g_value, chords), result
        assert result.witness.edge_count == g_value
        if n >= 4:
            assert chords == _star(n)
        if n in FROZEN_NODES:
            assert result.nodes_explored == FROZEN_NODES[n]
        assert g_value < n + math.sqrt(2 * n) + 1
        assert g_value <= _sharp_bound(n)
        spectrum = networkx_spectrum(result.witness)
        assert spectrum == oracle.enumerate_cycles(result.witness)
        assert len(set(spectrum)) == len(spectrum), spectrum

    @pytest.mark.parametrize("n", range(3, 10))
    def test_agrees_with_naive_sweep(self, n):
        assert search.exact_g(n).g_value == naive_g(n)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_pruning_does_not_change_answers(self, n):
        pruned = search.exact_g(n)
        g_value, witness, nodes = plain_search(n)
        assert pruned.g_value == g_value
        assert pruned.witness.chords == witness  # both lexicographically least
        assert pruned.nodes_explored <= nodes

    def test_can_fit_implies_the_plainer_cuts(self):
        # the walk's one gate: a child with fewer candidates than the chords
        # it needs, or whose K sets of at least depth + 3 lengths each break
        # the counting bound, never fits
        rng = random.Random(2309)
        seen = Counter()
        for _ in range(20000):
            n = rng.randrange(8, 40)
            depth = rng.randrange(0, min(5, n - 5))
            pool = [((1, 3 + index), bits(rng.sample(range(3, n), rng.randrange(depth + 3, n - 2))))
                    for index in range(rng.randrange(0, 8))]
            need = rng.randrange(1, 6)
            free = rng.randrange(0, n - 2)
            short = len(pool) < need
            over = need * (2 * depth + need + 5) > 2 * free
            fits = search._can_fit(pool, need, free)
            assert not (fits and (short or over)), (n, depth, pool, need, free)
            seen[short, over, fits] += 1
        assert min(seen[True, False, False], seen[False, True, False], seen[False, False, True]) >= 100, seen

    @pytest.mark.parametrize("n", range(5, 23))
    def test_walk_gate_covers_the_removed_cuts(self, n, monkeypatch):
        # the same implication on the pools the walk really builds: every K
        # holds at least depth + 3 lengths, the pool is a subset of the later
        # survivors, and a child cut by the survivor count (fewer later
        # survivors than need) or the counting bound never passes _can_fit;
        # _is_canonical sees each child, chosen + [chord], just before its pool
        # (at n = 12 and 17 no child meets either removed cut)
        is_canonical, child_pool, can_fit = search._is_canonical, search._child_pool, search._can_fit
        child = {}
        cuts = Counter()

        def recording_is_canonical(n, chords):
            child["depth"] = len(chords) - 1
            return is_canonical(n, chords)

        def recording_child_pool(n, chord, used, later):
            pool = child_pool(n, chord, used, later)
            assert {candidate for candidate, _ in pool} <= {candidate for candidate, _ in later}
            child["later"] = len(later)
            return pool

        def checked_can_fit(pool, need, free):
            depth = child["depth"]
            assert all(known.bit_count() >= depth + 3 for _, known in pool), (n, depth, pool)
            fits = can_fit(pool, need, free)
            survivor_cut = child["later"] < need
            counting_cut = need * (2 * depth + need + 5) > 2 * free
            assert not (fits and (survivor_cut or counting_cut)), (n, depth, pool, need, free)
            cuts[survivor_cut or counting_cut] += 1
            return fits

        monkeypatch.setattr(search, "_is_canonical", recording_is_canonical)
        monkeypatch.setattr(search, "_child_pool", recording_child_pool)
        monkeypatch.setattr(search, "_can_fit", checked_can_fit)
        assert search.exact_g(n).exhaustive
        assert cuts.total() >= 1, cuts
        assert (cuts[True] == 0) == (n in (12, 17)), cuts

    @pytest.mark.parametrize("n", long_beyond(23, sorted(PLAIN_CAP_NODES)))
    def test_counting_cap_gives_the_same_answers(self, n, monkeypatch):
        # without the zero-slack cut the search refutes k chords itself,
        # evidence for the lemma independent of its proof: the plain counting
        # cap gives the same g and witness as ``search.chord_cap``, in more nodes
        capped = search.exact_g(n)
        monkeypatch.setattr(search, "chord_cap", counting_cap)
        plain = search.exact_g(n)
        assert plain.exhaustive
        assert (plain.g_value, plain.witness.chords) == (capped.g_value, capped.witness.chords)
        assert plain.nodes_explored == PLAIN_CAP_NODES[n] > capped.nodes_explored

    def test_readme_quotes_the_node_counts(self):
        # the search bullet's node counts, each where it is frozen, so a
        # change of the search that moves one must update the README too
        bullet = re.search(r"^- `search`:.*?(?=^- )", README.read_text(encoding="utf-8"),
                           re.M | re.S).group()
        quoted = set(re.findall(r"\d{1,3}(?:,\d{3})*", bullet))
        counts = [search.exact_g(17).nodes_explored, *(PLAIN_CAP_NODES[n] for n in (17, 23, 30)),
                  *(FROZEN_NODES[n] for n in (23, 30, 31, 38))]
        assert {f"{count:,}" for count in counts} <= quoted, quoted

    def test_trivial_witnesses(self):
        assert search.exact_g(3).witness.chords == ()
        assert search.exact_g(4).witness.chords == ()
        assert search.exact_g(5).witness.chords == ((1, 3),)

    def test_uniquely_pancyclic_witness(self):
        # at n = 8 the maximum realizes every length 3..8 exactly once
        witness = search.exact_g(8).witness
        assert oracle.enumerate_cycles(witness) == (3, 4, 5, 6, 7, 8)

    def test_witnesses_survive_oracle_and_bounds(self):
        for n in range(3, 13):
            result = search.exact_g(n)
            spectrum = oracle.enumerate_cycles(result.witness)
            assert not oracle.has_repeat(spectrum)
            assert result.g_value == n + len(result.witness.chords)
            assert result.g_value < n + math.sqrt(2 * n) + 1
            assert result.g_value <= _sharp_bound(n)
            report = oracle.bound_report(result.witness, False)
            assert report["pair_bound_ok"] and report["crossing_bound_ok"]

    def test_budget_truncation(self):
        # a cut run counts the candidate it stops at without testing it, so
        # it reports budget + 1 nodes: at n = 17 a budget of 234 is cut at
        # 235 nodes, and 235, the exhaustive run's own count, is not cut
        star = ((1, 3), (1, 5), (1, 9))
        cases = ((12, 5, 14, star[:2]),  # the root is still testing; the first-fit star stands in
                 (17, 234, 20, star))
        for n, budget, g_value, chords in cases:
            result = search.exact_g(n, budget=budget)
            assert not result.exhaustive
            assert result.nodes_explored == budget + 1
            # whatever was found is still a valid repeat-free graph
            assert not oracle.has_repeat(oracle.enumerate_cycles(result.witness))
            assert (result.g_value, result.witness.chords) == (g_value, chords)
        result = search.exact_g(17, budget=235)
        assert (result.exhaustive, result.nodes_explored) == (True, 235)
        assert (result.g_value, result.witness.chords) == (20, star)

    def test_first_fit_star_is_a_maximal_witness(self):
        for n in range(4, 63):
            chords = search._first_fit_star(n)
            assert not oracle.has_repeat(oracle.enumerate_cycles(ChordedCycleGraph(n, chords)))
            for a in range(3, n):
                if (1, a) not in chords:
                    bigger = ChordedCycleGraph(n, tuple(sorted(chords + ((1, a),))))
                    assert oracle.has_repeat(oracle.enumerate_cycles(bigger))

    @pytest.mark.parametrize("n", [5, 12, 17, 30, 62])
    def test_truncated_run_reports_at_least_the_first_fit_star(self, n):
        result = search.exact_g(n, budget=1)
        assert not result.exhaustive
        assert result.g_value == n + len(search._first_fit_star(n))
        assert not oracle.has_repeat(oracle.enumerate_cycles(result.witness))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            search.exact_g(2)
        with pytest.raises(ValueError):
            search.exact_g(63)
        with pytest.raises(ValueError):
            search.exact_g(10, budget=0)

    def test_budget_refused_before_n(self):
        with pytest.raises(ValueError, match="^budget must be positive$"):
            search.exact_g(100, budget=0)

    def test_witness_recheck_refuses_a_repeat(self, monkeypatch):
        original = oracle.enumerate_cycles
        monkeypatch.setattr(oracle, "enumerate_cycles",
                            lambda graph: original(graph) + (graph.n,))
        with pytest.raises(oracle.InternalInconsistency, match="witness re-check"):
            search.exact_g(8)

    def test_repeats_never_recover(self):
        # once a length repeats, any extension still repeats: the reason the
        # search may cut entire subtrees
        rng = random.Random(55)
        for _ in range(30):
            n = rng.randrange(6, 12)
            pool = chord_pool(n)
            chords = tuple(sorted(rng.sample(pool, min(3, len(pool)))))
            graph = ChordedCycleGraph(n, chords)
            if not oracle.has_repeat(oracle.enumerate_cycles(graph)):
                continue
            free = [e for e in pool if e not in chords]
            if not free:
                continue
            extra = rng.choice(free)
            bigger = ChordedCycleGraph(n, tuple(sorted(chords + (extra,))))
            assert oracle.has_repeat(oracle.enumerate_cycles(bigger))


class TestSingleVertexChords:
    def test_small_frozen_values(self):
        assert max_single_vertex_chords(4) == (0, ())
        assert max_single_vertex_chords(7) == (1, (3,))
        # 10 lengths {3..7, 9..13}, all distinct; size 4 would need 15 > 11
        assert max_single_vertex_chords(13) == (3, (3, 6, 11))

    def test_witness_is_valid(self):
        for n in range(4, 30):
            size, witness = max_single_vertex_chords(n)
            assert len(witness) == size
            assert census_repeat(witness, n) is None

    def test_derived_anchor_sets_are_witnesses_not_maxima(self):
        # the difference-set pipeline proves a lower bound; the search can
        # beat it at fixed n (at n = 13 three anchors fit, the pipeline uses two)
        assert census_repeat([6], 7) is None
        assert max_single_vertex_chords(7)[0] == 1
        assert census_repeat([8, 12], 13) is None
        assert max_single_vertex_chords(13)[0] == 3

    def test_maximum_is_truly_maximal(self):
        # brute force over all anchor subsets for small n
        for n in range(4, 16):
            size, _ = max_single_vertex_chords(n)
            best = 0
            anchors = range(3, n)
            for k in range(len(list(anchors)), -1, -1):
                if any(census_repeat(c, n) is None for c in itertools.combinations(anchors, k)):
                    best = k
                    break
            assert size == best, n

    def test_sidon_growth_ceiling(self):
        # anchor differences are pairwise distinct, so the size cannot beat
        # a Sidon set packed into 3..n-1 by much
        for n in range(4, 45):
            size, witness = max_single_vertex_chords(n)
            assert size <= math.isqrt(n) + 2
            assert is_sidon(witness) or size < 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            max_single_vertex_chords(3)
