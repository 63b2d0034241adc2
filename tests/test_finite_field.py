"""Field arithmetic against hand-checked values, naive oracles, sympy and
the q x q table field it replaced."""

import itertools
import random

import pytest

from cyclespec import finite_field as ff
from cyclespec import singer
from references import (Tables, element_order, extension, index_of, long_beyond,
                        naive_product, naive_triple_product, poly_mod, poly_mul,
                        reference_choices, reference_primitive, reference_tower, table_extension,
                        table_irreducible, table_prime_field, tables, tower,
                        trial_division_irreducible)


GF2 = ff.prime_field(2)
GF3 = ff.prime_field(3)
GF7 = ff.prime_field(7)
PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(ff.factorize(q)) == 1]
PRIME_POWERS_TO_256 = long_beyond(64, [q for q in range(2, 257) if len(ff.factorize(q)) == 1])


# q -> (GF(q) modulus over GF(p) or None for prime q, cubic over GF(q), index
# of the primitive element of GF(q^3)), recorded from the object-tower
# implementation this core replaced.
CANONICAL = {
    2: (None, (1, 1, 0, 1), 2),
    3: (None, (1, 2, 0, 1), 3),
    4: ((1, 1, 1), (2, 0, 0, 1), 5),
    5: (None, (1, 1, 0, 1), 9),
    7: (None, (2, 0, 0, 1), 22),
    8: ((1, 1, 0, 1), (2, 1, 0, 1), 8),
    9: ((1, 0, 1), (3, 1, 0, 1), 10),
    16: ((1, 1, 0, 0, 1), (2, 0, 0, 1), 17),
    25: ((2, 0, 1), (6, 0, 0, 1), 28),
}


GF8_TABLES = table_extension(table_prime_field(2), (1, 1, 0, 1))


@pytest.mark.parametrize("q", PRIME_POWERS_TO_256)
def test_tower_matches_table_reference(q):
    # GF(q)'s modulus, the cubic over GF(q), the primitive element and the
    # Singer set, from finite_field and the construction
    (p, m), = ff.factorize(q)
    modulus = ff.find_irreducible(ff.prime_field(p), m) if m > 1 else None
    _, top = tower(q)
    assert (modulus, top.modulus, ff.find_primitive(top),
            singer.singer_difference_set(q).elements) == reference_choices(q)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_256)
def test_irreducibles_match_trial_division(q):
    # the moduli of q's tower: the cubic over GF(q) and, for q = p^m with
    # m > 1, the degree-m one over GF(p)
    (p, m), = ff.factorize(q)
    mid, _ = tower(q)
    for base, degree in [(mid, 3)] + ([(ff.prime_field(p), m)] if m > 1 else []):
        assert ff.find_irreducible(base, degree) == trial_division_irreducible(base, degree)


class TestPrimeField:
    def test_small_orders(self):
        assert GF2.order == GF2.characteristic == 2
        assert GF7.order == GF7.characteristic == 7
        assert all(GF7.add(0, a) == a and GF7.mul(1, a) == a for a in range(7))
        tables = table_prime_field(7)
        assert len(tables.add) == len(tables.mul) == 7
        assert all(tables.add[0][a] == a and tables.mul[1][a] == a for a in range(7))

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            ff.prime_field(6)
        with pytest.raises(ValueError):
            ff.prime_field(1)

    def test_mod_seven_arithmetic(self):
        assert GF7.add(3, 5) == 1
        assert GF7.mul(3, 5) == 1
        assert [a for a in range(7) if GF7.add(3, a) == 0] == [4]  # -3
        assert GF7.add(5, 5) == 3            # 3 - 5 = 5, so 5 + 5 = 3
        tables = table_prime_field(7)
        assert tables.add[3][5] == tables.mul[3][5] == 1
        assert tables.add[3].index(0) == 4 and tables.add[5][5] == 3


class TestIrreducibles:
    def test_canonical_choices(self):
        # lowest-degree-first index tuples: x^3 + x + 1, x^2 + x + 1, x^2 + 1
        assert ff.find_irreducible(GF2, 3) == (1, 1, 0, 1)
        assert ff.find_irreducible(GF2, 2) == (1, 1, 1)
        assert ff.find_irreducible(GF3, 2) == (1, 0, 1)

    def test_degree_below_two_rejected(self):
        for build in (ff.find_irreducible, ff.extend):
            with pytest.raises(ValueError, match="^degree must be at least 2$"):
                build(GF2, 1)

    @pytest.mark.parametrize("q", sorted(CANONICAL))
    def test_canonical_tower_choices(self, q):
        modulus, cubic, primitive = CANONICAL[q]
        (p, m), = ff.factorize(q)
        if modulus is not None:
            assert ff.find_irreducible(ff.prime_field(p), m) == modulus
        _, top = tower(q)
        assert top.modulus == cubic
        assert ff.find_primitive(top) == primitive

    def test_cubic_search_is_linear_in_q(self, monkeypatch):
        # 509 = 2 mod 3, so every x^3 + c has a root and the search reaches the
        # block x^3 + x + c: two passes over t, 5 products each, and no trial
        # division.  Trial division made 782,730 products in 513 calls.
        products, trials = [], []
        field = ff.prime_field(509)
        counting = field._replace(mul=lambda a, b: products.append(1) or field.mul(a, b))
        proper_factor = ff.proper_factor
        monkeypatch.setattr(ff, "proper_factor",
                            lambda *args: trials.append(args) or proper_factor(*args))
        assert ff.find_irreducible(counting, 3) == (3, 1, 0, 1)
        assert len(products) <= 10 * 509
        assert trials == []

    def test_every_returned_modulus_has_no_root(self):
        for base, degree in [(GF2, 2), (GF2, 3), (GF3, 2), (GF3, 3), (GF7, 2)]:
            poly = ff.find_irreducible(base, degree)
            assert poly[-1] == 1
            for point in range(base.order):
                value = 0
                for c in reversed(poly):
                    value = base.add(base.mul(value, point), c)
                assert value != 0


class TestExtensionField:
    def test_order_eight(self):
        field = extension(2, 3)
        assert field.order == 8
        assert ff.logarithms(field).order == 8
        assert len(tables(table_extension(table_prime_field(2), field.modulus)).mul) == 8

    def test_cube_reduction(self):
        # x * x^2 = x^3 = x + 1 mod x^3 + x + 1
        field = extension(2, 3)
        assert ff.multiply(field, (0, 1, 0), (0, 0, 1)) == (1, 1, 0)
        assert ff.logarithms(field).mul(2, 4) == 3
        assert tables(table_extension(table_prime_field(2), field.modulus)).mul[2][4] == 3

    def test_index_round_trip(self):
        field = extension(3, 2)
        for index in range(field.order):
            assert index_of(ff.element(field, index), 3) == index


class TestInversesAndOrders:
    def test_inverse_mod_seven(self):
        assert [a for a in range(7) if GF7.mul(3, a) == 1] == [5]
        assert table_prime_field(7).mul[3].index(1) == 5

    def test_zero_has_no_inverse(self):
        assert all(GF7.mul(0, a) != 1 for a in range(7))
        with pytest.raises(ValueError):
            element_order(GF8_TABLES, (0, 0, 0))

    def test_orders_mod_seven(self):
        # GF(7)[x]/(x) is GF(7) itself, with elements as 1-tuples
        field = table_extension(table_prime_field(7), (0, 1))
        assert element_order(field, (3,)) == 6
        assert element_order(field, (2,)) == 3
        assert element_order(field, (1,)) == 1

    def test_primitive_choices(self):
        field = extension(2, 3)
        gamma = ff.find_primitive(field)
        assert gamma == 2  # the generator x itself
        assert element_order(GF8_TABLES, ff.element(field, gamma)) == 7

    @pytest.mark.parametrize("p,degree", [
        (2, 3),  # |F| - 1 = 7 is prime
        (3, 2),  # |F| - 1 = 8 is a prime power
        (5, 2),  # x is no square, yet has order 8 of 24
        (11, 2),  # 120 = 2^3 * 3 * 5: candidates fail on 3 alone and on 5 alone
        (13, 2),  # 168 = 2^3 * 3 * 7: a candidate fails on 7 alone
    ], ids=["GF8", "GF9", "GF25", "GF121", "GF169"])
    def test_primitive_matches_order_reference_on_small_fields(self, p, degree):
        ground = table_prime_field(p)
        assert (ff.find_primitive(extension(p, degree))
                == reference_primitive(table_extension(ground, table_irreducible(ground, degree))))

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
    def test_primitive_matches_order_reference_on_singer_tops(self, q):
        _, top = tower(q)
        assert ff.find_primitive(top) == reference_primitive(reference_tower(q)[1])


@pytest.mark.parametrize("p,degree", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_products_match_naive_oracle(p, degree):
    field = extension(p, degree)
    rng = random.Random(1000 * p + degree)
    for _ in range(100):
        a = ff.element(field, rng.randrange(field.order))
        b = ff.element(field, rng.randrange(field.order))
        assert list(ff.multiply(field, a, b)) == naive_product(p, field.modulus, a, b)


@pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 25])
def test_triple_products_match_naive_oracle(q):
    (p, m), = ff.factorize(q)
    inner = ff.find_irreducible(ff.prime_field(p), m) if m > 1 else (0, 1)
    _, top = tower(q)
    rng = random.Random(q)
    for _ in range(200):
        a = tuple(rng.randrange(q) for _ in range(3))
        b = tuple(rng.randrange(q) for _ in range(3))
        assert ff.multiply(top, a, b) == naive_triple_product(p, inner, top.modulus, a, b)


def _operations(field):
    """(q, add, mul) of a finite_field ``Field`` or of reference ``Tables``."""
    if isinstance(field, Tables):
        return len(field.add), lambda a, b: field.add[a][b], lambda a, b: field.mul[a][b]
    return field.order, field.add, field.mul


@pytest.mark.parametrize("make", [
    lambda: GF7,
    lambda: ff.logarithms(extension(2, 3)),
    lambda: ff.logarithms(extension(3, 2)),
    lambda: ff.logarithms(extension(2, 4)),
    lambda: table_prime_field(7),
    lambda: tables(table_extension(table_prime_field(2), (1, 1, 0, 1))),
    lambda: tables(table_extension(table_prime_field(3), (1, 0, 1))),
    lambda: tables(table_extension(table_prime_field(2), (1, 1, 0, 0, 1))),
])
def test_field_axioms_hold(make):
    # q = 7, 8, 9, 16: small enough to check every triple; the log fields'
    # sums and products meet zero and opposites through their sentinels
    q, add, mul = _operations(make())
    for a, b in itertools.product(range(q), repeat=2):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    for a, b, c in itertools.product(range(q), repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a in range(q):
        assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
        assert [add(a, b) for b in range(q)].count(0) == 1
        if a:
            assert [mul(a, b) for b in range(q)].count(1) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128])
def test_log_field_matches_tables(q):
    # every sum and product of the O(q) log field against the q x q tables
    (p, m), = ff.factorize(q)
    field = ff.logarithms(extension(p, m))
    ground = table_prime_field(p)
    reference = tables(table_extension(ground, table_irreducible(ground, m)))
    for a, b in itertools.product(range(q), repeat=2):
        assert field.add(a, b) == reference.add[a][b]
        assert field.mul(a, b) == reference.mul[a][b]


def test_primitive_generates_everything():
    for q in (2, 3, 4, 5):
        _, top = tower(q)
        gamma = ff.element(top, ff.find_primitive(top))
        assert element_order(reference_tower(q)[1], gamma) == q ** 3 - 1
        seen = set()
        power = ff.element(top, 1)
        for _ in range(q ** 3 - 1):
            seen.add(power)
            power = ff.multiply(top, power, gamma)
        assert power == ff.element(top, 1)
        assert len(seen) == q ** 3 - 1
        assert (0, 0, 0) not in seen


def test_polynomial_division_invariant():
    # (quotient * divisor + remainder) mod divisor == remainder, over GF(3) and
    # GF(9): the reference's own polynomial arithmetic
    rng = random.Random(9)
    for field in (table_prime_field(3), tables(table_extension(table_prime_field(3), (1, 0, 1)))):
        q = len(field.add)
        for _ in range(50):
            divisor = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 5))) + (1,)
            quotient = [rng.randrange(q) for _ in range(rng.randrange(1, 5))]
            remainder = [rng.randrange(q) for _ in range(len(divisor) - 1)]
            product = poly_mul(field, quotient, divisor)
            dividend = [field.add[x][y] for x, y in
                        itertools.zip_longest(product, remainder, fillvalue=0)]
            assert poly_mod(field, dividend, divisor) == remainder


@pytest.mark.parametrize("p,degree", [(p, m) for p in (2, 3, 5, 7) for m in range(2, 7)
                                      if p ** m <= 64])
def test_irreducible_matches_sympy(p, degree):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    irreducible = lambda poly: galoistools.gf_irreducible_p(list(reversed(poly)), p, ZZ)
    chosen = ff.find_irreducible(ff.prime_field(p), degree)
    assert irreducible(chosen)
    for candidate in ff.monic_polynomials(ff.prime_field(p), degree):
        if candidate == chosen:
            break
        assert not irreducible(candidate)
