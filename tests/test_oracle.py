"""The brute-force side: cycle enumeration, Sidon check, counting bounds."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cyclespec import graphs, oracle
from cyclespec.graphs import ChordedCycleGraph
from references import (chord_pool, contracted_reference, dihedral_maps, is_sidon,
                        networkx_spectrum, relabel, singer_graph, subset_cycle_lengths,
                        vertex_cycles)


class TestEnumerate:
    def test_bare_cycle(self):
        assert oracle.enumerate_cycles(ChordedCycleGraph(5)) == (5,)
        assert oracle.enumerate_cycles(ChordedCycleGraph(5), budget=1) == (5,)

    def test_seven_vertex_example(self):
        spectrum = oracle.enumerate_cycles(graphs.build_graph(7, [6]))
        assert spectrum == (3, 6, 7)

    def test_repeated_lengths_surface(self):
        spectrum = oracle.enumerate_cycles(ChordedCycleGraph(4, ((1, 3),)))
        assert spectrum == (3, 3, 4)
        assert oracle.has_repeat(spectrum)

    def test_budget_exhaustion(self):
        graph = ChordedCycleGraph(4, ((1, 3),))
        with pytest.raises(oracle.BudgetExceeded):
            oracle.enumerate_cycles(graph, budget=2)
        with pytest.raises(ValueError):
            oracle.enumerate_cycles(graph, budget=0)

    def test_exact_budget_passes(self):
        graph = ChordedCycleGraph(4, ((1, 3),))
        assert len(oracle.enumerate_cycles(graph, budget=3)) == 3

    @pytest.mark.parametrize("graph", [
        graphs.build_graph(13, [8, 12]),
        ChordedCycleGraph(30, ((1, 12), (3, 24), (5, 20), (9, 27), (15, 29))),
        singer_graph(4),
    ])
    def test_budget_counts_cycles_found(self, graph):
        spectrum = oracle.enumerate_cycles(graph)
        total = len(spectrum)
        for budget in range(1, total + 2):
            if budget < total:
                with pytest.raises(oracle.BudgetExceeded) as info:
                    oracle.enumerate_cycles(graph, budget)
                assert str(info.value) == f"cycle budget {budget} exceeded; {budget} cycles found"
            else:
                assert oracle.enumerate_cycles(graph, budget) == spectrum

    @pytest.mark.parametrize("q", [16, 32])
    def test_large_singer_graphs_match_census(self, q):
        graph = singer_graph(q)
        anchors = [anchor for _, anchor in graph.chords]
        assert oracle.enumerate_cycles(graph) == graphs.predicted_spectrum(graph.n, anchors)

    def test_deep_hub_graph_needs_no_recursion(self):
        # 201 branch vertices, and one path from the hub visits all of
        # them; a recursive walk would need a frame per vertex on it
        anchors = range(3, 203)
        expected = graphs.predicted_spectrum(205, anchors)
        graph = graphs.build_graph(205, anchors)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            spectrum = oracle.enumerate_cycles(graph)
        finally:
            sys.setrecursionlimit(limit)
        assert len(spectrum) == 1 + 2 * 200 + 200 * 199 // 2
        assert spectrum == expected


def test_enumeration_matches_edge_subset_oracle():
    rng = random.Random(77)
    cases = [ChordedCycleGraph(3), ChordedCycleGraph(4, ((1, 3),))]
    while len(cases) < 20:
        n = rng.randrange(5, 11)
        chords = tuple(sorted(rng.sample(chord_pool(n), rng.randrange(0, 4))))
        cases.append(ChordedCycleGraph(n, chords))
    for graph in cases:
        got = oracle.enumerate_cycles(graph)
        assert got == subset_cycle_lengths(graph), graph


@pytest.mark.parametrize("max_examples", [300, pytest.param(2000, marks=pytest.mark.long)])
def test_contraction_matches_vertex_and_networkx_oracles(max_examples):
    """Four enumerators agree on hypothesis draws of chorded cycles: the
    shipped one, ``contracted_reference``, ``vertex_cycles`` and networkx.

    n <= 40 and up to 10 chords, drawn with repeated endpoints allowed, so
    parallel contracted edges occur; half the draws also put up to 10
    chords on one hub vertex.  Derandomized, so every run sees the same
    graphs.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pytest.importorskip("networkx")  # skip before any draw: no example reported as failing

    @st.composite
    def chorded_cycles(draw):
        n = draw(st.integers(3, 40))
        pool = chord_pool(n)
        if not pool:
            return ChordedCycleGraph(n)
        hub = draw(st.integers(1, n))
        spokes = [chord for chord in pool if hub in chord]
        chords = set(draw(st.lists(st.sampled_from(spokes), max_size=10))
                     if draw(st.booleans()) else ())
        chords |= set(draw(st.lists(st.sampled_from(pool), max_size=10 - len(chords))))
        return ChordedCycleGraph(n, tuple(chords))

    @hypothesis.settings(max_examples=max_examples, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(chorded_cycles())
    @hypothesis.example(ChordedCycleGraph(14, tuple((1, a) for a in range(3, 13))))
    @hypothesis.example(ChordedCycleGraph(12, ((1, 6), (2, 6), (3, 6), (6, 9), (6, 11), (4, 10))))
    @hypothesis.example(ChordedCycleGraph(24, tuple((2 * i + 1, 2 * i + 4) for i in range(9))))
    def agree(graph):
        expected = networkx_spectrum(graph)
        assert oracle.enumerate_cycles(graph) == contracted_reference(graph) == expected
        assert vertex_cycles(graph) == expected

    agree()


class TestHasRepeat:
    def test_reports_repeats(self):
        assert oracle.has_repeat((3, 5, 5, 7, 7)) is True
        assert oracle.has_repeat((4, 4, 4)) is True

    def test_accepts_distinct(self):
        assert oracle.has_repeat((3, 5, 7)) is False
        assert oracle.has_repeat(()) is False

    def test_unsorted_input(self):
        assert oracle.has_repeat((7, 3, 7)) is True
        assert oracle.has_repeat((5, 3, 4)) is False


class TestSidon:
    def test_accepts_small_sets(self):
        assert is_sidon([6]) is True
        assert is_sidon([1, 2, 3]) is True
        assert is_sidon([]) is True

    def test_rejects_collision(self):
        # 1 + 4 == 2 + 3
        assert not is_sidon([1, 2, 3, 4])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            is_sidon([3, 3])
        with pytest.raises(ValueError):
            is_sidon([0, 2])

    def test_matches_naive_sum_count(self):
        rng = random.Random(42)
        for _ in range(200):
            size = rng.randrange(0, 7)
            values = rng.sample(range(1, 30), size)
            sums = Counter(a + b for i, a in enumerate(values)
                           for b in values[i + 1:])
            distinct = all(c == 1 for c in sums.values())
            assert is_sidon(values) == distinct, values


class TestCrossingPairs:
    def test_interleaved(self):
        assert oracle.crossing_pairs(ChordedCycleGraph(7, ((1, 4), (2, 6)))) == 1

    def test_shared_endpoint_and_nested(self):
        assert oracle.crossing_pairs(ChordedCycleGraph(7, ((1, 4), (1, 6)))) == 0
        assert oracle.crossing_pairs(ChordedCycleGraph(7, ((1, 5), (2, 4)))) == 0

    def test_invariant_under_relabeling(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randrange(6, 15)
            graph = ChordedCycleGraph(n, tuple(sorted(rng.sample(chord_pool(n), 3))))
            baseline = oracle.crossing_pairs(graph)
            for mapping in dihedral_maps(n):
                assert oracle.crossing_pairs(relabel(graph, mapping)) == baseline


class TestBounds:
    def test_large_construction_values(self):
        report = oracle.bound_report(graphs.build_graph(183, []), False)
        assert abs(report["singer_lower_bound"] - 195.0) < 1e-9
        assert abs(report["edge_upper_bound"] - (183 + (366) ** 0.5 + 1)) < 1e-9

    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
    def test_exact_rational_collapse(self, q):
        # the float in bound_report agrees: n + sqrt(n - 3/4) - 3/2 = q^2 + 2q
        n = q * q + q + 1
        assert oracle.singer_lower_bound_exact(n) == Fraction(q * q + 2 * q)
        report = oracle.bound_report(ChordedCycleGraph(n), False)
        assert abs(report["singer_lower_bound"] - (q * q + 2 * q)) < 1e-9

    def test_exact_rational_other_moduli(self):
        assert oracle.singer_lower_bound_exact(5) is None  # 17 is not a square
        assert oracle.singer_lower_bound_exact(1) == 0
        with pytest.raises(ValueError, match="need n >= 1"):  # not isqrt's own error
            oracle.singer_lower_bound_exact(0)

    def test_bounds_hold_on_pipeline_graphs(self):
        for q in (2, 3, 4, 5):
            graph = singer_graph(q)
            report = oracle.bound_report(graph, oracle.has_repeat(oracle.enumerate_cycles(graph)))
            assert report["pair_bound_ok"] and report["crossing_bound_ok"]

    def test_inconsistency_guard(self):
        # no graph below is repeat-free; faking a clean verdict must trip the
        # internal check when either bound fails: both (six chord pairs, three
        # crossing, on five vertices), only the pair bound (ten pairs, none
        # crossing, on ten) or only the crossing bound (six pairs, four
        # crossing, on seven)
        for graph in (ChordedCycleGraph(5, ((1, 3), (1, 4), (2, 4), (2, 5))),
                      graphs.build_graph(10, (3, 4, 5, 6, 7)),
                      ChordedCycleGraph(7, ((1, 3), (1, 4), (2, 5), (3, 6)))):
            with pytest.raises(oracle.InternalInconsistency):
                oracle.bound_report(graph, False)

    def test_failing_bound_reported_when_repeats_present(self):
        graph = ChordedCycleGraph(5, ((1, 3), (1, 4), (2, 4), (2, 5)))
        repeated = oracle.has_repeat(oracle.enumerate_cycles(graph))
        assert repeated
        report = oracle.bound_report(graph, repeated)
        assert not report["pair_bound_ok"]


class TestVerificationReport:
    def test_shape_and_content(self):
        graph = graphs.build_graph(13, [8, 12])
        report = oracle.verification_report(graph)
        assert list(report) == ["n", "edges", "chords", "spectrum", "repeated", "bounds"]
        assert report["n"] == 13
        assert report["edges"] == 15
        assert report["chords"] == [[1, 8], [1, 12]]
        assert report["spectrum"] == [3, 6, 7, 8, 12, 13]
        assert report["repeated"] is False
        assert list(report["bounds"]) == [
            "chord_count", "crossing_count", "chord_pairs", "pair_bound_ok",
            "crossing_bound_ok", "edge_upper_bound", "singer_lower_bound"]
        assert report["bounds"]["pair_bound_ok"] is True
        json.dumps(report)  # must be serializable as is

    def test_budget_propagates(self):
        graph = ChordedCycleGraph(4, ((1, 3),))
        with pytest.raises(oracle.BudgetExceeded):
            oracle.verification_report(graph, budget=1)
