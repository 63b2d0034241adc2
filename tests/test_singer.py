"""Difference set construction, verification oracle, and brute-force cross-check."""

import random
import re
import tracemalloc

import pytest

from cyclespec import cli, finite_field, singer
from references import (brute_force_difference_set, full_walk, long_beyond, matrix_walk,
                        sorted_differences_perfect, translate)


PRIME_POWERS = [q for q in range(2, 257) if singer.prime_power(q)]

# singer_difference_set(q).elements for every prime power q <= 32, recorded
# from the object-tower field arithmetic that preceded the flat integer core.
# Any change of canonical modulus or primitive element shows up here.
GOLDEN = {
    2: (0, 1, 3),
    3: (0, 1, 3, 9),
    4: (0, 1, 4, 14, 16),
    5: (0, 1, 4, 10, 12, 17),
    7: (0, 1, 7, 24, 36, 38, 49, 54),
    8: (0, 1, 3, 7, 15, 31, 36, 54, 63),
    9: (0, 1, 3, 9, 27, 49, 56, 61, 77, 81),
    11: (0, 1, 3, 15, 46, 71, 75, 84, 94, 101, 112, 128),
    13: (0, 1, 5, 13, 65, 68, 93, 111, 113, 122, 146, 152, 162, 169),
    16: (0, 1, 4, 16, 26, 57, 64, 91, 93, 99, 104, 123, 143, 205, 219, 228, 256),
    17: (0, 1, 3, 30, 37, 50, 55, 76, 98, 117, 129, 133, 157, 189, 199, 222, 293, 299),
    19: (0, 1, 19, 26, 28, 36, 42, 113, 118, 151, 173, 202, 239, 242, 254, 303, 307,
         337, 350, 361),
    23: (0, 1, 3, 17, 36, 42, 64, 93, 131, 149, 161, 193, 204, 214, 219, 227, 264, 273,
         313, 400, 448, 452, 472, 479),
    25: (0, 1, 12, 25, 70, 133, 154, 176, 251, 300, 304, 339, 354, 387, 416, 434, 439,
         448, 494, 553, 559, 561, 595, 625, 632, 635),
    27: (0, 1, 3, 9, 27, 43, 81, 129, 173, 220, 243, 310, 387, 404, 409, 445, 455, 466,
         470, 505, 519, 578, 608, 641, 653, 660, 673, 729),
    29: (0, 1, 13, 45, 53, 59, 92, 126, 210, 221, 231, 285, 374, 459, 468, 483, 490,
         519, 545, 561, 580, 617, 660, 734, 736, 761, 764, 784, 802, 867),
    31: (0, 1, 23, 31, 60, 66, 77, 84, 87, 195, 253, 257, 291, 331, 401, 416, 468, 473,
         515, 590, 606, 618, 711, 713, 752, 761, 841, 867, 892, 912, 961, 980),
    32: (0, 1, 8, 25, 45, 64, 116, 189, 195, 200, 236, 302, 306, 334, 360, 402, 420,
         453, 455, 469, 482, 503, 512, 543, 558, 581, 685, 766, 831, 843, 853, 925,
         928),
}


class TestPrimePower:
    def test_accepts_prime_powers(self):
        assert singer.prime_power(2) == (2, 1)
        assert singer.prime_power(8) == (2, 3)
        assert singer.prime_power(9) == (3, 2)
        assert singer.prime_power(13) == (13, 1)

    def test_rejects_everything_else(self):
        for q in (0, 1, 6, 10, 12, 15):
            assert singer.prime_power(q) is None


class TestConstruction:
    def test_smallest_cases_frozen(self):
        assert singer.singer_difference_set(2).elements == (0, 1, 3)
        assert singer.singer_difference_set(3).elements == (0, 1, 3, 9)

    @pytest.mark.parametrize("q", long_beyond(128, PRIME_POWERS))
    def test_size_and_perfectness(self, q):
        diffset = singer.singer_difference_set(q)
        assert diffset.n == q * q + q + 1
        assert diffset.k == q + 1
        assert singer.verify_perfect_difference_set(diffset)

    def test_not_prime_power_rejected(self):
        with pytest.raises(ValueError, match=r"^6 is not a prime power \(nearest: 5 and 7\)$"):
            singer.singer_difference_set(6)
        with pytest.raises(ValueError, match=r"^1 is not a prime power \(nearest: 2\)$"):
            singer.singer_difference_set(1)

    @pytest.mark.parametrize("q", sorted(GOLDEN))
    def test_golden_difference_sets(self, q):
        assert singer.singer_difference_set(q).elements == GOLDEN[q]

    def test_golden_covers_every_prime_power_to_32(self):
        assert sorted(GOLDEN) == [q for q in range(2, 33) if singer.prime_power(q)]

    def test_deterministic(self):
        assert (singer.singer_difference_set(4).elements
                == singer.singer_difference_set(4).elements)


@pytest.mark.parametrize("q", [q for q in range(2, 65) if singer.prime_power(q)])
def test_one_period_matches_full_walk(q):
    assert singer.singer_difference_set(q).elements == full_walk(q)


@pytest.mark.parametrize("q", long_beyond(64, PRIME_POWERS))
def test_recurrence_matches_matrix_walk(q):
    assert singer.singer_difference_set(q).elements == matrix_walk(q)


def test_walk_covers_one_period(monkeypatch):
    # Every GF(23) product and sum is counted.  The walk starts after the last
    # GF(23^3) product, which gives the seed w(2), and each step is the
    # three-term recurrence read from the tables of s2 x, s1 x and s0 x: two
    # sums and no product.  One period is n = 553 steps, the full walk
    # 23^3 - 1.
    calls, last_multiply = [], []
    prime_field, multiply = finite_field.prime_field, finite_field.multiply

    def counting_field(p):
        field = prime_field(p)
        return field._replace(add=lambda a, b: calls.append("add") or field.add(a, b),
                              mul=lambda a, b: calls.append("mul") or field.mul(a, b))

    def recording_multiply(*args):
        result = multiply(*args)
        last_multiply.append(len(calls))
        return result

    monkeypatch.setattr(finite_field, "prime_field", counting_field)
    monkeypatch.setattr(finite_field, "multiply", recording_multiply)
    singer.singer_difference_set(23)
    walk = calls[last_multiply[-1]:]
    assert (walk.count("add"), walk.count("mul")) == (2 * (23 * 23 + 23 + 1), 0)


@pytest.mark.parametrize("q", [2, 7, 9, 19, 64])
def test_one_extension_product_outside_the_primitive_search(monkeypatch, q):
    # The recurrence's coefficients come from the rows of finite_field.matrix,
    # which are shifts, and s0 from a determinant over GF(q), so the one
    # GF(q^3) product outside find_primitive is gamma^2, the seed of w(2).
    products, searching, gammas = [], [], []
    multiply, find_primitive = finite_field.multiply, finite_field.find_primitive

    def counting_multiply(field, a, b):
        if field.order == q ** 3 and not searching:
            products.append((a, b))
        return multiply(field, a, b)

    def marked_search(field):
        searching.append(field)
        index = find_primitive(field)
        searching.pop()
        gammas.append(finite_field.element(field, index))
        return index

    monkeypatch.setattr(finite_field, "multiply", counting_multiply)
    monkeypatch.setattr(finite_field, "find_primitive", marked_search)
    singer.singer_difference_set(q)
    assert products == [(gammas[-1], gammas[-1])]


def test_unit_group_order_factored_once(monkeypatch):
    # prime_power(19), prime_field(19), then one factorization of 19^3 - 1
    # shared by every candidate find_primitive tries: the 11 indices 19..29
    # that follow the constants, which it skips
    calls = []
    original = finite_field.factorize
    monkeypatch.setattr(finite_field, "factorize",
                        lambda n: calls.append(n) or original(n))
    singer.singer_difference_set(19)
    assert calls == [19, 19, 19 ** 3 - 1]


def test_field_memory_is_linear_in_q():
    # q = 251 is prime, so GF(q) is arithmetic mod p and the walk keeps three
    # coordinates: the peak stays under 100 kB, where the q x q tables it
    # replaced took about 1.1 MB.  Warm up first, so that the interpreter's
    # own first-run allocations are not counted.
    singer.singer_difference_set(251)
    tracemalloc.start()
    try:
        singer.singer_difference_set(251)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("q", [4, 5], ids=["tower", "prime"])
def test_field_steps_go_through_module_attributes(monkeypatch, q):
    # The benchmark's per-layer spans replace these three module attributes;
    # the construction must keep looking them up there, once per step.
    calls = {}
    for name in ("find_irreducible", "extend", "find_primitive"):
        def counting(*args, _name=name, _original=getattr(finite_field, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(finite_field, name, counting)
    singer.singer_difference_set(q)
    steps = 2 if q == 4 else 1
    assert calls == {"find_irreducible": steps, "extend": steps, "find_primitive": steps}


def test_derive_checks_perfectness_once(monkeypatch):
    # counted through the module attribute, which the benchmark's span wraps
    calls = []
    original = singer.verify_perfect_difference_set
    monkeypatch.setattr(singer, "verify_perfect_difference_set",
                        lambda diffset: calls.append(diffset) or original(diffset))
    assert cli.main(["derive", "3"]) == 0
    assert [diffset.elements for diffset in calls] == [(0, 1, 3, 9)]


class TestVerifier:
    def test_accepts_perfect(self):
        assert singer.verify_perfect_difference_set(
            singer.PerfectDifferenceSet(7, (1, 2, 4))) is True

    def test_rejects_imperfect(self):
        # 1 = 2 - 1 = 3 - 2 is covered twice, 3 and 4 not at all
        assert not singer.verify_perfect_difference_set(
            singer.PerfectDifferenceSet(7, (1, 2, 3)))

    def test_trivial_set(self):
        # n = 1 leaves no residues to cover
        assert singer.verify_perfect_difference_set(
            singer.PerfectDifferenceSet(1, (0,)))

    def test_empty_set(self):
        # the range check has no element to look at; nothing is covered
        assert singer.verify_perfect_difference_set(
            singer.PerfectDifferenceSet(5, ())) is False

    @pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 64])
    def test_corrupted_sets_match_sorted_differences(self, q):
        diffset = singer.singer_difference_set(q)
        n, elements = diffset.n, diffset.elements
        variants = [diffset]
        for i in range(len(elements)):
            dropped = elements[:i] + elements[i + 1:]
            variants.append(singer.PerfectDifferenceSet(n, dropped))
            shifted = (elements[i] + 1) % n
            if shifted not in elements:
                variants.append(singer.PerfectDifferenceSet(n, sorted(dropped + (shifted,))))
        assert len(variants) > len(elements) + 1
        verdicts = []
        for candidate in variants:
            verdicts.append(singer.verify_perfect_difference_set(candidate))
            assert verdicts[-1] is sorted_differences_perfect(candidate), candidate
        # the set itself passes, every dropped element fails (a shift may
        # land on another perfect set, as {0, 1, 3} -> {0, 2, 3} at q = 2)
        assert verdicts[0] and verdicts.count(False) >= len(elements)

    def test_constructor_validation(self):
        for elements, message in (((2, 1), "elements must be strictly increasing"),
                                  ((1, 1, 4), "elements must be strictly increasing"),
                                  ((1, 2, 7), "elements must lie in 0..6"),
                                  ((-1, 3), "elements must lie in 0..6")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                singer.PerfectDifferenceSet(7, elements)

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            singer.PerfectDifferenceSet(0, ())


class TestRecord:
    def test_construction_makes_a_tuple_either_way(self):
        positional = singer.PerfectDifferenceSet(7, [1, 2, 4])
        assert positional == singer.PerfectDifferenceSet(n=7, elements=[1, 2, 4])
        assert (positional.n, positional.elements, positional.k) == (7, (1, 2, 4), 3)

    def test_repr(self):
        assert (repr(singer.PerfectDifferenceSet(7, [1, 2, 4]))
                == "PerfectDifferenceSet(n=7, elements=(1, 2, 4))")

    def test_immutable(self):
        diffset = singer.PerfectDifferenceSet(7, [1, 2, 4])
        with pytest.raises(AttributeError):
            diffset.n = 8
        with pytest.raises(AttributeError):
            diffset.elements = ()

    def test_make_and_replace_validate_and_normalize(self):
        diffset = singer.PerfectDifferenceSet(7, [1, 2, 4])
        with pytest.raises(ValueError, match="^elements must be strictly increasing$"):
            diffset._replace(elements=[4, 1])
        assert diffset._replace(elements=[0, 1, 3]).elements == (0, 1, 3)
        assert singer.PerfectDifferenceSet._make((7, [1, 2, 4])) == diffset


class TestTranslate:
    def test_preserves_perfectness(self):
        rng = random.Random(7)
        for q in (2, 3, 4):
            diffset = singer.singer_difference_set(q)
            for _ in range(20):
                assert singer.verify_perfect_difference_set(
                    translate(diffset, rng.randrange(diffset.n)))


class TestBruteForce:
    def test_lexicographic_minima(self):
        found = brute_force_difference_set(7, 3)
        assert found is not None and found.elements == (0, 1, 3)
        found = brute_force_difference_set(13, 4)
        assert found is not None and found.elements == (0, 1, 3, 9)

    def test_infeasible_modulus(self):
        # 3 * 2 = 6 differences cannot cover Z_8 \ {0} once each
        assert brute_force_difference_set(8, 3) is None

    def test_counting_precondition(self):
        with pytest.raises(ValueError):
            brute_force_difference_set(7, 4)
        with pytest.raises(ValueError):
            brute_force_difference_set(7, 0)

    @pytest.mark.parametrize("q", [2, 3])
    def test_agrees_with_construction(self, q):
        algebraic = singer.singer_difference_set(q)
        combinatorial = brute_force_difference_set(algebraic.n, algebraic.k)
        assert combinatorial is not None
        assert combinatorial.k == algebraic.k
        assert singer.verify_perfect_difference_set(combinatorial)
