"""Derivation of chord anchors from perfect difference sets, and the census
check it runs on them."""

import random

import pytest

from cyclespec import cycleset, graphs, oracle, singer
from references import census_repeat, translate

PERFECT = "need a perfect difference set of at least 3 elements"


class TestDerivation:
    def test_seven_vertex_example(self):
        trace = cycleset.derive_cycle_set_trace(
            singer.PerfectDifferenceSet(7, (1, 2, 4)))
        assert trace.pair == (4, 2)
        assert trace.shifted == (2, 6, 7)
        assert trace.anchors == (6,)

    def test_thirteen_vertex_example(self):
        trace = cycleset.derive_cycle_set_trace(
            singer.PerfectDifferenceSet(13, (0, 1, 3, 9)))
        assert trace.pair == (3, 1)
        assert trace.shifted == (2, 8, 12, 13)
        assert trace.anchors == (8, 12)
        assert cycleset.derive_cycle_set_trace(singer.singer_difference_set(3)).anchors == (8, 12)

    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13))
    def test_size_drops_by_two(self, q):
        # the translate holds 2 and n, which are dropped, and never 1
        diffset = singer.singer_difference_set(q)
        trace = cycleset.derive_cycle_set_trace(diffset)
        assert {2, diffset.n} <= set(trace.shifted) and 1 not in trace.shifted
        assert len(trace.anchors) == q - 1
        assert list(trace.anchors) == sorted(trace.anchors)

    def test_small_inputs_rejected(self):
        with pytest.raises(ValueError, match=PERFECT):
            cycleset.derive_cycle_set_trace(singer.PerfectDifferenceSet(5, (0, 2, 3)))
        with pytest.raises(ValueError, match=PERFECT):
            cycleset.derive_cycle_set_trace(singer.PerfectDifferenceSet(13, (0, 2)))
        with pytest.raises(ValueError, match=PERFECT):  # perfect, but k = 2
            cycleset.derive_cycle_set_trace(singer.PerfectDifferenceSet(3, (0, 1)))

    def test_no_pair_at_difference_two(self):
        with pytest.raises(ValueError, match=PERFECT):
            cycleset.derive_cycle_set_trace(singer.PerfectDifferenceSet(13, (0, 4, 8)))

    def test_ambiguous_pair_rejected(self):
        # both (2, 0) and (4, 2) differ by two
        with pytest.raises(ValueError, match=PERFECT):
            cycleset.derive_cycle_set_trace(singer.PerfectDifferenceSet(13, (0, 2, 4)))

    @pytest.mark.parametrize("elements", [(0, 1, 2), (0, 1, 2, 5), (0, 1, 3)])
    def test_imperfect_sets_rejected(self, elements):
        # the first two would put 1 into the translate, the third derives (12,)
        with pytest.raises(ValueError, match=PERFECT):
            cycleset.derive_cycle_set_trace(singer.PerfectDifferenceSet(13, elements))

    def test_translation_invariant(self):
        rng = random.Random(11)
        for q in (2, 3, 4):
            diffset = singer.singer_difference_set(q)
            baseline = cycleset.derive_cycle_set_trace(diffset).anchors
            for _ in range(10):
                moved = translate(diffset, rng.randrange(diffset.n))
                assert cycleset.derive_cycle_set_trace(moved).anchors == baseline

    def test_census_check_goes_through_module_attributes(self, monkeypatch):
        # a census that repeats a length must stop the derivation
        monkeypatch.setattr(graphs, "predicted_spectrum", lambda n, anchors: (3, 3))
        with pytest.raises(oracle.InternalInconsistency):
            cycleset.derive_cycle_set_trace(singer.PerfectDifferenceSet(13, (0, 1, 3, 9)))


class TestRecord:
    TRACE = "CycleSetDerivation(pair=(4, 2), shifted=(2, 6, 7), anchors=(6,))"

    def test_construction_either_way(self):
        positional = cycleset.CycleSetDerivation((4, 2), (2, 6, 7), (6,))
        assert positional == cycleset.CycleSetDerivation(pair=(4, 2), shifted=(2, 6, 7),
                                                         anchors=(6,))
        assert (positional.pair, positional.shifted, positional.anchors) == ((4, 2), (2, 6, 7),
                                                                             (6,))

    def test_repr(self):
        assert repr(cycleset.derive_cycle_set_trace(
            singer.PerfectDifferenceSet(7, (1, 2, 4)))) == self.TRACE

    def test_immutable(self):
        trace = cycleset.CycleSetDerivation((4, 2), (2, 6, 7), (6,))
        with pytest.raises(AttributeError):
            trace.anchors = ()


class TestVerifier:
    """Each way anchors can fail shows as the census repeating a length."""

    def test_accepts_valid_sets(self):
        assert census_repeat([8, 12], 13) is None
        assert census_repeat([6], 7) is None
        assert census_repeat([], 7) is None

    def test_range_violation(self):
        with pytest.raises(ValueError, match="chord anchor 2 must lie in 3..6"):
            census_repeat([2, 6], 7)
        with pytest.raises(ValueError, match="chord anchor 7 must lie in 3..6"):
            census_repeat([3, 7], 7)

    def test_duplicate_counts_as_range(self):
        with pytest.raises(ValueError, match="duplicate anchors"):
            census_repeat([5, 5], 20)

    def test_repeated_difference(self):
        # 4 - 3 == 5 - 4: both gaps are 3, as is the anchor 3
        assert census_repeat([3, 4, 5], 20) == 3

    def test_complement_overlap(self):
        # 9 = 20 + 2 - 13
        assert census_repeat([9, 13], 20) == 9

    def test_self_complementary_anchor(self):
        assert census_repeat([7], 12) == 7

    def test_gap_overlap(self):
        # gap 9 - 8 + 2 = 3 collides with the anchor 3, gap 9 - 3 + 2 with 8
        assert census_repeat([3, 8, 9], 30) == 3

    def test_complement_gap_overlap(self):
        # gap 9 - 3 + 2 = 8 equals complement 20 + 2 - 14
        assert census_repeat([3, 9, 14], 20) == 8
