"""Chorded cycle graphs: construction, census formula, and serialization."""

import itertools
import random
import re
import tracemalloc
from collections import Counter

import pytest

import cyclespec
from cyclespec import graphs, oracle
from references import (TEMPLATE_FORMATS, chord_pool, is_sidon, singer_graph,
                        template_parse_edges)


def _raises(message):
    """ValueError whose message contains ``message`` verbatim."""
    return pytest.raises(ValueError, match=re.escape(message))


# What the parser differential draws lines from: ASCII and Unicode
# whitespace, ASCII and other scripts' digits, DOT's operators and braces,
# its opening line and letters.
_PIECES = (" ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "0", "1", "7", "42",
           "\u0663", "\u00b2", "\uff11", "\u0967", "-", "--", "->", ";", "{", "}",
           "graph {", "a", "x")


def parser_mismatches(count, seed):
    """Parse ``count`` seeded random lines per text format with ``graphs`` and
    with ``template_parse_edges``, the parser it replaced.  Returns the
    lines whose edges or exact ValueError messages differ, and how many
    lines gave edges.  Half the lines are an exported edge line with up to
    three edits (insert, delete or replace one character by a piece), so
    near-misses of each grammar are common; the rest join 1-7 pieces."""
    rng = random.Random(seed)
    mismatches, parsed = [], 0
    for fmt, (_, template, _, _) in TEMPLATE_FORMATS.items():
        for _ in range(count):
            if rng.random() < 0.5:
                line = list(template.format(rng.randrange(3), rng.randrange(100)))
                for _ in range(rng.randrange(4)):
                    at = rng.randrange(len(line) + 1)
                    line[at:at + rng.randrange(2)] = rng.sample(_PIECES, rng.randrange(2))
                line = "".join(line)
            else:
                line = "".join(rng.choices(_PIECES, k=rng.randrange(1, 8)))
            outcomes = []
            for parse in (graphs._parse_edges, template_parse_edges):
                try:
                    outcomes.append(parse(line, fmt))
                except ValueError as exc:
                    outcomes.append(str(exc))
            if outcomes[0] != outcomes[1]:
                mismatches.append((fmt, line, *outcomes))
            parsed += isinstance(outcomes[0], list) and outcomes[0] != []
    return mismatches, parsed


class TestConstruction:
    def test_seven_vertex_graph(self):
        graph = graphs.build_graph(7, [6])
        assert graph.n == 7
        assert graph.chords == ((1, 6),)
        assert graph.edge_count == 8

    def test_thirteen_vertex_graph(self):
        graph = graphs.build_graph(13, [8, 12])
        assert graph.edge_count == 15
        assert graph.chords == ((1, 8), (1, 12))

    def test_cycle_edges_wrap(self):
        assert graphs.ChordedCycleGraph(4).cycle_edges() == [(1, 2), (2, 3), (3, 4), (4, 1)]

    def test_anchor_range_enforced(self):
        for bad in (1, 2, 7, 8):
            with _raises(f"chord anchor {bad} must lie in 3..6"):
                graphs.build_graph(7, [bad])

    def test_duplicate_anchors_rejected(self):
        with pytest.raises(ValueError):
            graphs.build_graph(9, [4, 4])

    def test_tiny_cycle_rejected(self):
        with _raises("need at least 3 vertices"):
            graphs.ChordedCycleGraph(2)

    def test_needs_three_vertices(self):
        with _raises("need at least 3 vertices"):
            graphs.build_graph(2, ())
        with _raises("need at least 3 vertices"):
            graphs.predicted_spectrum(2, ())  # builds no ChordedCycleGraph to check n

    def test_chord_validation(self):
        with _raises("bad chord (2, 2) on 6 vertices"):
            graphs.ChordedCycleGraph(6, ((2, 2),))       # self loop
        with _raises("bad chord (0, 3) on 6 vertices"):
            graphs.ChordedCycleGraph(6, ((0, 3),))       # below 1
        with _raises("bad chord (2, 9) on 6 vertices"):
            graphs.ChordedCycleGraph(6, ((2, 9),))       # beyond n
        with _raises("chord (1, 2) duplicates a cycle edge"):
            graphs.ChordedCycleGraph(6, ((1, 2),))       # already a cycle edge
        with _raises("chord (6, 1) duplicates a cycle edge"):
            graphs.ChordedCycleGraph(6, ((6, 1),))       # wraparound cycle edge
        with _raises("duplicate chords"):
            graphs.ChordedCycleGraph(6, ((1, 3), (3, 1)))  # same chord twice


class TestRecord:
    def test_construction_normalizes_either_way(self):
        positional = graphs.ChordedCycleGraph(5, [(3, 1)])
        assert positional == graphs.ChordedCycleGraph(n=5, chords=[(3, 1)])
        assert (positional.n, positional.chords) == (5, ((1, 3),))
        assert graphs.ChordedCycleGraph(n=4).chords == ()

    def test_repr(self):
        assert (repr(graphs.ChordedCycleGraph(5, [(3, 1)]))
                == "ChordedCycleGraph(n=5, chords=((1, 3),))")

    def test_immutable(self):
        graph = graphs.ChordedCycleGraph(5, [(3, 1)])
        with pytest.raises(AttributeError):
            graph.n = 6
        with pytest.raises(AttributeError):
            graph.chords = ()

    def test_make_and_replace_validate_and_normalize(self):
        graph = graphs.ChordedCycleGraph(5, [(3, 1)])
        with pytest.raises(ValueError, match=r"^chord \(2, 3\) duplicates a cycle edge$"):
            graph._replace(chords=((2, 3),))
        with pytest.raises(ValueError, match="^need at least 3 vertices$"):
            graphs.ChordedCycleGraph._make((2, [(9, 9)]))
        assert graph._replace(chords=[(5, 2)]).chords == ((2, 5),)
        assert graphs.ChordedCycleGraph._make((5, [(3, 1)])) == graph


# n: anchor sets on the n-cycle whose census repeats a length, of the
# 2^(n - 3); 3,891 of the 4,095 for n = 3..14
CENSUS_REPEATS = {3: 0, 4: 1, 5: 1, 6: 5, 7: 11, 8: 25, 9: 51, 10: 113, 11: 229,
                  12: 487, 13: 979, 14: 1989}


class TestPredictedSpectrum:
    def test_frozen_examples(self):
        assert graphs.predicted_spectrum(7, [6]) == (3, 6, 7)
        assert graphs.predicted_spectrum(13, [8, 12]) == (3, 6, 7, 8, 12, 13)
        assert graphs.predicted_spectrum(9, []) == (9,)
        assert graphs.predicted_spectrum(13, (12, 8)) == (3, 6, 7, 8, 12, 13)  # any order

    def test_count_formula(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randrange(8, 40)
            size = rng.randrange(0, 5)
            anchors = rng.sample(range(3, n), size)
            spectrum = graphs.predicted_spectrum(n, anchors)
            assert len(spectrum) == 1 + 2 * size + size * (size - 1) // 2

    @pytest.mark.parametrize("n", sorted(CENSUS_REPEATS))
    def test_census_matches_enumeration_on_every_anchor_set(self, n):
        # all 2^(n - 3) anchor sets for n <= 14: the census is the enumerated
        # multiset also when lengths repeat; the repeat-free sets are Sidon
        # sets (with a < b < c < d, a + d = b + c would make the gap lengths
        # b - a + 2 and d - c + 2 equal)
        checked = repeating = 0
        for size in range(n - 2):
            for anchors in itertools.combinations(range(3, n), size):
                spectrum = graphs.predicted_spectrum(n, anchors)
                graph = graphs.build_graph(n, anchors)
                assert spectrum == oracle.enumerate_cycles(graph), anchors
                checked += 1
                if not oracle.has_repeat(spectrum):
                    assert is_sidon(anchors), anchors
                else:
                    repeating += 1
        assert (checked, repeating) == (2 ** (n - 3), CENSUS_REPEATS[n])

    @pytest.mark.parametrize("n", range(15, 41, 5))
    def test_census_matches_enumeration_on_random_anchor_sets(self, n):
        # beyond the exhaustive range: 60 random sets of up to 5 anchors,
        # repeats allowed, so longer gaps and arcs are enumerated too
        rng = random.Random(n)
        for _ in range(60):
            anchors = tuple(sorted(rng.sample(range(3, n), rng.randrange(6))))
            graph = graphs.build_graph(n, anchors)
            assert graphs.predicted_spectrum(n, anchors) == oracle.enumerate_cycles(graph), anchors

    def test_repeats_allowed_in_census(self):
        # the census is a multiset; distinctness is the verifier's job
        spectrum = graphs.predicted_spectrum(20, [3, 4, 5])
        assert spectrum.count(3) == 3  # anchor 3 plus gaps 4-3+2 and 5-4+2


class TestExport:
    def test_edge_list_triangle(self):
        graph = graphs.ChordedCycleGraph(3)
        assert graphs.export_graph(graph, "edgelist") == "1 2\n2 3\n3 1\n"

    def test_edge_list_with_chord(self):
        graph = graphs.build_graph(5, [3])
        assert graphs.export_graph(graph, "edgelist") == \
            "1 2\n2 3\n3 4\n4 5\n5 1\n1 3\n"

    def test_dot_shape(self):
        text = graphs.export_graph(graphs.build_graph(4, [3]), "dot")
        assert text == "graph {\n  1 -- 2;\n  2 -- 3;\n  3 -- 4;\n  4 -- 1;\n  1 -- 3;\n}\n"

    def test_graph6_triangle(self):
        # standard encoding of the complete graph on three vertices
        assert graphs.export_graph(graphs.ChordedCycleGraph(3), "graph6") == "Bw\n"

    def test_graph6_long_header(self):
        # n = 62 is the last short header; 63, 73 (q = 8) and 553 (q = 23) need "~"
        for graph in [graphs.ChordedCycleGraph(62), graphs.build_graph(62, [5, 40]),
                      graphs.ChordedCycleGraph(63), singer_graph(8), singer_graph(23)]:
            text = graphs.export_graph(graph, "graph6")
            assert text.startswith("~") == (graph.n > 62)
            assert graphs.import_graph(text, "graph6") == graph
        assert graphs.export_graph(graphs.ChordedCycleGraph(63), "graph6")[:4] == "~??~"

    def test_graph6_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for graph in [graphs.build_graph(13, [8, 12]), graphs.ChordedCycleGraph(62),
                      graphs.ChordedCycleGraph(63), singer_graph(8), singer_graph(23)]:
            reference = nx.Graph()
            reference.add_nodes_from(range(1, graph.n + 1))
            reference.add_edges_from(graph.cycle_edges() + list(graph.chords))
            expected = nx.to_graph6_bytes(reference, header=False).decode()
            assert graphs.export_graph(graph, "graph6") == expected

    def test_graph6_memory_is_linear_in_output(self):
        # q = 37, n = 1407: 164,859 bytes.  A list of ints, one 8-byte slot
        # per 6-bit group, joined one chr at a time traced 25 bytes per byte.
        graph = singer_graph(37)
        graphs.export_graph(graph, "graph6")  # the interpreter's first-run allocations
        tracemalloc.start()
        try:
            text = graphs.export_graph(graph, "graph6")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * len(text)


class TestImport:
    def test_round_trips_every_format(self):
        rng = random.Random(3141)
        for _ in range(100):
            n = rng.randrange(3, 50)
            size = rng.randrange(0, min(4, max(1, n - 3)))
            anchors = rng.sample(range(3, n), min(size, n - 3))
            graph = graphs.build_graph(n, anchors)
            for fmt in graphs.FORMATS:
                text = graphs.export_graph(graph, fmt)
                back = graphs.import_graph(text, fmt)
                assert back == graph, (n, anchors, fmt)

    def test_library_takes_format_names(self):
        # the names the CLI's --format takes, straight from the package
        text = "graph {\n  1 -- 2;\n  2 -- 3;\n  3 -- 4;\n  4 -- 1;\n  1 -- 3;\n}\n"
        assert cyclespec.import_graph(text, "dot") == graphs.build_graph(4, [3])
        with _raises("unknown format 'xml'"):
            cyclespec.import_graph(text, "xml")
        with _raises("unknown format 'xml'"):
            graphs.export_graph(graphs.ChordedCycleGraph(3), "xml")

    def test_line_order_irrelevant(self):
        graph = graphs.build_graph(11, [4, 7])
        lines = graphs.export_graph(graph, "edgelist").splitlines()
        random.Random(5).shuffle(lines)
        assert graphs.import_graph("\n".join(lines) + "\n", "edgelist") == graph

    def test_non_anchor_chords_survive(self):
        graph = graphs.ChordedCycleGraph(9, ((2, 6), (4, 8)))
        text = graphs.export_graph(graph, "edgelist")
        assert graphs.import_graph(text, "edgelist") == graph

    def test_missing_cycle_edge(self):
        with _raises("missing cycle edge (1, 3)"):
            graphs.import_graph("1 2\n2 3\n", "edgelist")

    def test_huge_label_stops_at_first_missing_cycle_edge(self):
        # the cycle edges of n = 10**6 are never built: the scan stops at (1, n)
        tracemalloc.start()
        try:
            with _raises("missing cycle edge (1, 1000000)"):
                graphs.import_graph("1 2\n2 1000000\n", "edgelist")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_malformed_lines(self):
        for text, message in [
                ("1\n", "line 1: expected two vertex labels, got '1'"),
                ("1 2 3\n", "line 1: expected two vertex labels, got '1 2 3'"),
                ("a b\n", "line 1: expected two vertex labels, got 'a b'"),
                ("0 2\n", "line 1: vertex labels start at 1"),
                ("", "no edges found")]:
            with _raises(message):
                graphs.import_graph(text, "edgelist")

    @pytest.mark.parametrize("count,seed,parsed", [
        (20_000, 0, 6988),  # of 40,000 lines; the rest are refused or skipped
        pytest.param(1_000_000, 1, 347132, marks=pytest.mark.long),
    ])
    def test_parser_matches_template_reference(self, count, seed, parsed):
        assert parser_mismatches(count, seed) == ([], parsed)

    def test_non_ascii_digits_refused(self):
        # str.isdigit accepts these, int() rejects '²' and reads '٣' as 3
        for text, fmt, message in [
                ("1 \u00b2\n", "edgelist",
                 "line 1: expected two vertex labels, got '1 \u00b2'"),
                ("1 2\n2 \u0663\n1 3\n", "edgelist",
                 "line 2: expected two vertex labels, got '2 \u0663'"),
                ("graph {\n  1 -- \u0663;\n}\n", "dot",
                 "line 2: expected 'u -- v;', got '  1 -- \u0663;'")]:
            with _raises(message):
                graphs.import_graph(text, fmt)

    def test_repeated_edge(self):
        with _raises("repeated edge (1, 2)"):
            graphs.import_graph("1 2\n2 3\n3 1\n2 1\n", "edgelist")

    def test_self_loop_rejected(self):
        with _raises("bad chord (2, 2) on 3 vertices"):
            graphs.import_graph("1 2\n2 3\n3 1\n2 2\n", "edgelist")
        with _raises("bad chord (2, 2) on 3 vertices"):  # the least is named
            graphs.import_graph("1 2\n2 3\n3 1\n3 3\n2 2\n", "edgelist")

    def test_dot_malformed(self):
        with _raises("line 2: expected 'u -- v;', got '  1 -- 2'"):
            graphs.import_graph("graph {\n  1 -- 2\n}\n", "dot")  # no semicolon
        with _raises("line 2: expected 'u -- v;', got '  1 -> 2;'"):
            graphs.import_graph("graph {\n  1 -> 2;\n}\n", "dot")

    def test_graph6_malformed(self):
        with _raises("expected a single graph6 line"):
            graphs.import_graph("Bw\nBw\n", "graph6")   # two lines
        with _raises("graph6 bit vector has the wrong length"):
            graphs.import_graph("B", "graph6")          # truncated bits
        with _raises("graph6 padding bits must be zero"):
            graphs.import_graph("B" + chr(63 + 1), "graph6")  # bad padding

    def test_graph6_header_limits(self):
        with _raises("truncated graph6 header"):
            graphs.import_graph("~?@", "graph6")
        with _raises("graph6 input beyond 258047 vertices is unsupported"):
            graphs.import_graph("~~??????", "graph6")
        with pytest.raises(ValueError, match="at most 258047"):
            graphs.export_graph(graphs.ChordedCycleGraph(258048), "graph6")

    def test_graph6_without_hamilton_cycle(self):
        # triangle with one edge cleared: bits 110 -> value 48
        line = "B" + chr(48 + 63)
        with _raises("missing cycle edge (2, 3)"):
            graphs.import_graph(line, "graph6")


def test_round_trips_arbitrary_chords():
    """Any chord set, every format, n on both sides of the 62/63 graph6 header."""
    rng = random.Random(300)
    seen = Counter()
    for draw in range(300):
        n = rng.randint(3, 80)
        pool = chord_pool(n)
        chords = rng.sample(pool, rng.randint(0, len(pool)))
        graph = graphs.ChordedCycleGraph(n, tuple(chords))
        fmt = graphs.FORMATS[draw % len(graphs.FORMATS)]
        assert graphs.import_graph(graphs.export_graph(graph, fmt), fmt) == graph, (graph, fmt)
        seen["long header" if n > 62 else "short header"] += 1
        seen["dense"] += 2 * len(chords) >= len(pool) > 0
        seen["no chords"] += not chords
    assert min(seen["long header"], seen["short header"], seen["dense"]) >= 20, seen
    assert seen["no chords"] >= 5, seen
