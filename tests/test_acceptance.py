"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every criterion holds exactly (no tolerances beyond the stated 1e-9 float
comparison in criterion 3).
"""

import functools
import math
import random
import time
from fractions import Fraction

from cyclespec import cycleset, graphs, oracle, search, singer
from references import brute_force_difference_set, census_repeat, is_sidon

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def _criterion(number, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number} {label}: FAIL")
        raise
    print(f"criterion {number} {label}: PASS")


@functools.cache
def _pipeline():
    """All nine constructions, built and enumerated once, and the seconds
    the first build took; every criterion that reads them shares them."""
    started = time.monotonic()
    rows = []
    for q in PRIME_POWERS:
        diffset = singer.singer_difference_set(q)
        trace = cycleset.derive_cycle_set_trace(diffset)
        graph = graphs.build_graph(diffset.n, trace.anchors)
        spectrum = oracle.enumerate_cycles(graph)
        rows.append((q, diffset, trace, graph, spectrum))
    return tuple(rows), time.monotonic() - started


def _random_valid_sets(seed, count, minimum_size=0):
    """Random (n, S) whose census repeats no length, n <= 40."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randrange(7, 41)
        size = rng.randrange(minimum_size, 5)
        anchors = tuple(sorted(rng.sample(range(3, n), size)))
        if census_repeat(anchors, n) is None:
            found.append((n, anchors))
    return found


@functools.cache
def _random_graphs():
    """500 random repeat-free star graphs, n <= 40, as (anchors, graph,
    enumerated spectrum)."""
    rows = []
    for n, anchors in _random_valid_sets(seed=202, count=500):
        graph = graphs.build_graph(n, anchors)
        rows.append((anchors, graph, oracle.enumerate_cycles(graph)))
    return tuple(rows)


@functools.cache
def _search_results():
    """Exact g for n = 3..12, and the seconds the first search took."""
    started = time.monotonic()
    results = tuple(search.exact_g(n) for n in range(3, 13))
    return results, time.monotonic() - started


def test_criterion_1_construction_pipeline():
    def body():
        rows, seconds = _pipeline()
        for q, diffset, trace, graph, spectrum in rows:
            n = q * q + q + 1
            assert diffset.n == n
            assert graph.n == n
            assert graph.edge_count == q * q + 2 * q
            assert n in spectrum
            assert oracle.has_repeated_length(spectrum) is None
        assert seconds < 10.0
    _criterion(1, "difference-set pipeline, nine prime powers", body)


def test_criterion_2_census_equals_enumeration():
    def body():
        for q, diffset, trace, graph, spectrum in _pipeline()[0]:
            predicted = graphs.predicted_spectrum(diffset.n, trace.anchors)
            assert predicted == spectrum
        for anchors, graph, enumerated in _random_graphs():
            predicted = graphs.predicted_spectrum(graph.n, anchors)
            assert predicted == enumerated, (graph.n, anchors)
    _criterion(2, "closed-form census equals enumeration", body)


def test_criterion_3_bound_identity():
    def body():
        for q in PRIME_POWERS:
            n = q * q + q + 1
            floating = n + math.sqrt(n - 0.75) - 1.5
            assert abs(floating - (q * q + 2 * q)) < 1e-9
            assert oracle.singer_lower_bound_exact(n) == Fraction(q * q + 2 * q)
    _criterion(3, "lower-bound identity, float and exact rational", body)


def test_criterion_4_counting_bounds_everywhere():
    def body():
        seen = 0
        for q, diffset, trace, graph, spectrum in _pipeline()[0]:
            report = oracle.bound_report(graph, spectrum)  # raises on violation
            assert report["pair_bound_ok"] and report["crossing_bound_ok"]
            seen += 1
        for _, graph, spectrum in _random_graphs():
            report = oracle.bound_report(graph, spectrum)
            assert report["pair_bound_ok"] and report["crossing_bound_ok"]
            seen += 1
        for result in _search_results()[0]:
            spectrum = oracle.enumerate_cycles(result.witness)
            report = oracle.bound_report(result.witness, spectrum)
            assert report["pair_bound_ok"] and report["crossing_bound_ok"]
            seen += 1
        assert seen >= 500
    _criterion(4, "chord-pair counting bounds on every repeat-free graph", body)


def test_criterion_5_exact_search_soundness():
    def body():
        results, seconds = _search_results()
        assert seconds < 300.0
        for result in results:
            assert result.exhaustive
            assert result.g_value < result.n + math.sqrt(2 * result.n) + 1
            assert result.g_value <= result.n + (math.sqrt(8 * result.n - 15) - 3) / 2
            spectrum = oracle.enumerate_cycles(result.witness)
            assert oracle.has_repeated_length(spectrum) is None
            assert result.n in spectrum
        by_n = {r.n: r.g_value for r in results}
        assert by_n[7] >= 8
        thirteen = search.exact_g(13)  # well inside the default budget
        assert thirteen.exhaustive
        assert thirteen.g_value >= 15
    _criterion(5, "exhaustive search n=3..13, sound witnesses", body)


def test_criterion_6_sidon_consequence():
    def body():
        for n, anchors in _random_valid_sets(seed=606, count=200, minimum_size=2):
            assert is_sidon(anchors), (n, anchors)
    _criterion(6, "distinct cycle sets are Sidon", body)


def test_criterion_7_difference_set_verification():
    def body():
        for q, diffset, trace, graph, spectrum in _pipeline()[0]:
            assert singer.verify_perfect_difference_set(diffset)
        for q in (2, 3):
            algebraic = singer.singer_difference_set(q)
            independent = brute_force_difference_set(algebraic.n, algebraic.k)
            assert independent is not None
            assert independent.k == algebraic.k
            assert singer.verify_perfect_difference_set(independent)
    _criterion(7, "verifier and independent brute-force oracle", body)


def test_criterion_8_derivation_exactness():
    def body():
        for q, diffset, trace, graph, spectrum in _pipeline()[0]:
            assert len(trace.anchors) == q - 1
            assert 2 in trace.shifted
            assert diffset.n in trace.shifted
            assert 1 not in trace.shifted
    _criterion(8, "derivation drops {2, n}, size q-1", body)
