"""The long checks: the full ranges that the tier-1 tests sample, each run
through the same helper as its tier-1 twin.  They take about 3 min, so the
name keeps this module out of the default ``test_*.py`` collection; run it
by path:

    PYTHONPATH=src python -X dev -W error::ResourceWarning -m pytest tests/long_checks.py -q

Only helpers are imported from the test modules: a ``test_*`` function or
``Test*`` class imported under its own name would be collected again here.
"""

# imported here, and not only through the helpers' importorskip, so that a
# missing dependency fails collection instead of skipping the checks
import hypothesis  # noqa: F401
import networkx  # noqa: F401
import pytest

from cyclespec import singer
from references import matrix_walk, reference_choices
from test_finite_field import check_irreducibles, choices
from test_graphs import parser_mismatches
from test_oracle import cross_check_enumerators
from test_search import (FROZEN_NODES, PLAIN_CAP_NODES, check_counting_cap, check_readme_row,
                         zero_slack_lemma_mismatches)


@pytest.mark.parametrize("q", [q for q in range(65, 257) if singer.prime_power(q)])
def test_tower_matches_table_reference(q):
    # tier-1 compares q <= 64 with the table field and checks perfectness up to q = 128
    assert choices(q) == reference_choices(q)
    assert singer.verify_perfect_difference_set(singer.singer_difference_set(q))


@pytest.mark.parametrize("q", [q for q in range(65, 257) if singer.prime_power(q)])
def test_fast_paths_match_the_paths_they_replaced(q):
    # tier-1 compares them for q <= 64
    check_irreducibles(q)
    assert singer.singer_difference_set(q).elements == matrix_walk(q)


@pytest.mark.parametrize("n", [n for n in FROZEN_NODES if n > 22])
def test_readme_row(n):
    check_readme_row(n)


def test_zero_slack_lemma():
    # every set of at most 4 chords on the n-cycle, n = 5..11
    mismatches, tight = zero_slack_lemma_mismatches(11)
    assert mismatches == []
    assert tight == 18903


@pytest.mark.parametrize("n", [n for n in PLAIN_CAP_NODES if n > 23])
def test_counting_cap_gives_the_same_answers(n, monkeypatch):
    check_counting_cap(n, monkeypatch)


def test_contraction_matches_vertex_and_networkx_oracles():
    cross_check_enumerators(2000)


def test_parser_matches_template_reference():
    # tier-1 draws 20,000 lines per format
    mismatches, parsed = parser_mismatches(1_000_000, seed=1)
    assert mismatches == []
    assert parsed == 347132  # of 2,000,000 lines
