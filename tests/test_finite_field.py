"""Field arithmetic against hand-checked values, naive oracles, sympy and
the q x q table field it replaced."""

import itertools
import random
from typing import NamedTuple

import pytest

from cyclespec import finite_field as ff
from cyclespec import singer


GF2 = ff.prime_field(2)
GF3 = ff.prime_field(3)
GF7 = ff.prime_field(7)
PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(ff.factorize(q)) == 1]


def _extension(p, degree):
    base = ff.prime_field(p)
    return ff.extend(base, ff.find_irreducible(base, degree))


def _tower(q):
    """(GF(q), GF(q^3) over it) the way the Singer construction builds them."""
    (p, m), = ff.factorize(q)
    mid = ff.prime_field(p) if m == 1 else ff.logarithms(_extension(p, m))
    return mid, ff.extend(mid, ff.find_irreducible(mid, 3))


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


# ------------------------------------------------------------- reference
# The table field that finite_field's arithmetic mod p and O(q) log tables
# replaced: GF(q) as q x q addition and multiplication tables on the same
# canonical indices, and generic polynomial products reduced through them.
# It shares no arithmetic with finite_field, only ``factorize`` and ``digits``.

class Tables(NamedTuple):
    """GF(q) on the indices 0..q-1; index 0 is zero and index 1 is one."""

    add: list[list[int]]
    mul: list[list[int]]


class TableExtension(NamedTuple):
    base: Tables
    modulus: tuple[int, ...]
    order: int


def table_prime_field(p):
    return Tables([[(a + b) % p for b in range(p)] for a in range(p)],
                  [[a * b % p for b in range(p)] for a in range(p)])


def poly_mul(field, a, b):
    add, mul = field
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        row = mul[x]
        for j, y in enumerate(b):
            out[i + j] = add[out[i + j]][row[y]]
    return out


def poly_mod(field, a, divisor):
    """Remainder of a by a monic divisor (so no inversion), as deg(divisor) coefficients."""
    add, mul = field
    width = len(divisor) - 1
    rest = list(a) + [0] * (width - len(a))
    while len(rest) > width:
        minus = mul[add[rest.pop()].index(0)]
        for j, c in enumerate(divisor[:-1], len(rest) - width):
            rest[j] = add[rest[j]][minus[c]]
    return rest


def table_irreducible(field, degree):
    """The first monic irreducible of ``degree`` in canonical order, by trial division."""
    size = len(field.add)
    monic = lambda d: (ff.digits(value, size, d) + (1,) for value in range(size ** d))
    return next(poly for poly in monic(degree)
                if all(any(poly_mod(field, poly, factor))
                       for d in range(1, degree // 2 + 1) for factor in monic(d)))


def table_extension(base, modulus):
    return TableExtension(base, tuple(modulus), len(base.add) ** (len(modulus) - 1))


def table_element(field, index):
    return ff.digits(index, len(field.base.add), len(field.modulus) - 1)


def multiply(field, a, b):
    return tuple(poly_mod(field.base, poly_mul(field.base, a, b), field.modulus))


def power(field, a, exponent):
    result = table_element(field, 1)
    while exponent:
        if exponent & 1:
            result = multiply(field, result, a)
        a = multiply(field, a, a)
        exponent >>= 1
    return result


def tables(field):
    """The tables of a small extension, on canonical indices."""
    elements = [table_element(field, i) for i in range(field.order)]
    index = {e: i for i, e in enumerate(elements)}
    return Tables([[index[tuple(field.base.add[x][y] for x, y in zip(a, b))] for b in elements]
                   for a in elements],
                  [[index[multiply(field, a, b)] for b in elements] for a in elements])


def element_order(field, a):
    """Reference: the order of a nonzero element, by dividing primes out of
    |F| - 1 while a to that power stays 1 (factoring |F| - 1 on every call)."""
    if not any(a):
        raise ValueError("zero has no multiplicative order")
    order = field.order - 1
    for prime, _ in ff.factorize(order):
        while order % prime == 0 and power(field, a, order // prime) == table_element(field, 1):
            order //= prime
    return order


def reference_primitive(field):
    """The first canonical index of full order, found by ``element_order``."""
    return next(index for index in range(1, field.order)
                if element_order(field, table_element(field, index)) == field.order - 1)


def reference_tower(q):
    """(GF(q) modulus over GF(p) or None for prime q, GF(q^3) over the GF(q) tables)."""
    (p, m), = ff.factorize(q)
    ground = table_prime_field(p)
    if m == 1:
        return None, table_extension(ground, table_irreducible(ground, 3))
    modulus = table_irreducible(ground, m)
    mid = tables(table_extension(ground, modulus))
    return modulus, table_extension(mid, table_irreducible(mid, 3))


def reference_choices(q):
    """(GF(q) modulus, cubic, primitive index, Singer set) from the table field;
    the set walks n = q^2 + q + 1 powers of the primitive element by products."""
    modulus, top = reference_tower(q)
    primitive = reference_primitive(top)
    gamma, power_ = table_element(top, primitive), table_element(top, 1)
    elements = []
    for exponent in range(q * q + q + 1):
        if power_[2] == 0:
            elements.append(exponent)
        power_ = multiply(top, power_, gamma)
    return modulus, top.modulus, primitive, tuple(elements)


def choices(q):
    """The same four from finite_field and the Singer construction."""
    (p, m), = ff.factorize(q)
    modulus = ff.find_irreducible(ff.prime_field(p), m) if m > 1 else None
    _, top = _tower(q)
    return (modulus, top.modulus, ff.find_primitive(top),
            singer.singer_difference_set(q).elements)


GF8_TABLES = table_extension(table_prime_field(2), (1, 1, 0, 1))


def _index(coords, base):
    return sum(c * base ** i for i, c in enumerate(coords))


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_tower_matches_table_reference(q):
    assert choices(q) == reference_choices(q)


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

    @pytest.mark.parametrize("q", sorted(CANONICAL))
    def test_canonical_tower_choices(self, q):
        modulus, cubic, primitive = CANONICAL[q]
        (p, m), = ff.factorize(q)
        if modulus is not None:
            assert ff.find_irreducible(ff.prime_field(p), m) == modulus
        _, top = _tower(q)
        assert top.modulus == cubic
        assert ff.find_primitive(top) == primitive

    def test_reducible_modulus_rejected(self):
        # x^2 has the witness factor x
        with pytest.raises(ValueError, match=r"factor \(0, 1\)"):
            ff.extend(GF2, (0, 0, 1))
        with pytest.raises(ValueError, match="monic"):
            ff.extend(GF3, (1, 0, 2))

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
        field = _extension(2, 3)
        assert field.order == 8
        assert ff.logarithms(field).order == 8
        assert len(tables(table_extension(table_prime_field(2), field.modulus)).mul) == 8

    def test_cube_reduction(self):
        # x * x^2 = x^3 = x + 1 mod x^3 + x + 1
        field = _extension(2, 3)
        assert ff.multiply(field, (0, 1, 0), (0, 0, 1)) == (1, 1, 0)
        assert ff.logarithms(field).mul(2, 4) == 3
        assert tables(table_extension(table_prime_field(2), field.modulus)).mul[2][4] == 3

    def test_index_round_trip(self):
        field = _extension(3, 2)
        for index in range(field.order):
            assert _index(ff.element(field, index), 3) == index


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
        assert ff.find_primitive(ff.extend(GF7, (0, 1))) == 3
        assert ff.find_primitive(ff.extend(GF2, (0, 1))) == 1
        field = _extension(2, 3)
        gamma = ff.find_primitive(field)
        assert gamma == 2  # the generator x itself
        assert element_order(GF8_TABLES, ff.element(field, gamma)) == 7

    @pytest.mark.parametrize("p,modulus", [
        (2, (0, 1)),
        (7, (0, 1)),
        (41, (0, 1)),      # 3 is no square mod 41, yet has order 8
        (2, (1, 1, 0, 1)),  # |F| - 1 = 7 is prime
        (3, (1, 0, 1)),     # |F| - 1 = 8 is a prime power
    ], ids=["GF2", "GF7", "GF41", "GF8", "GF9"])
    def test_primitive_matches_order_reference_on_small_fields(self, p, modulus):
        assert (ff.find_primitive(ff.extend(ff.prime_field(p), modulus))
                == reference_primitive(table_extension(table_prime_field(p), modulus)))

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
    def test_primitive_matches_order_reference_on_singer_tops(self, q):
        _, top = _tower(q)
        assert ff.find_primitive(top) == reference_primitive(reference_tower(q)[1])


def _naive_product(p, modulus, a, b):
    """Schoolbook multiply-and-reduce on plain int vectors, coefficients mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    width = len(modulus) - 1
    for top in range(len(out) - 1, width - 1, -1):
        c = out[top]
        if c:
            for j in range(width + 1):
                out[top - width + j] = (out[top - width + j] - c * modulus[j]) % p
    return (out + [0] * width)[:width]


def _naive_triple_product(p, inner, cubic, a, b):
    """GF(q^3) product with each GF(q) coefficient as a vector over GF(p).

    Coefficients are multiplied by ``_naive_product`` modulo ``inner`` (the
    GF(q) modulus over GF(p)) and added coordinatewise mod p, so none of the
    field tables under test take part.
    """
    m = len(inner) - 1
    vec = lambda index: [index // p ** i % p for i in range(m)]
    times = lambda x, y: _naive_product(p, inner, x, y)
    plus = lambda x, y: [(s + t) % p for s, t in zip(x, y)]
    out = [[0] * m for _ in range(5)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = plus(out[i + j], times(vec(x), vec(y)))
    for top in (4, 3):
        minus = [(-c) % p for c in out[top]]
        for j in range(3):
            out[top - 3 + j] = plus(out[top - 3 + j], times(minus, vec(cubic[j])))
    return tuple(_index(c, p) for c in out[:3])


@pytest.mark.parametrize("p,degree", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_products_match_naive_oracle(p, degree):
    field = _extension(p, degree)
    rng = random.Random(1000 * p + degree)
    for _ in range(100):
        a = ff.element(field, rng.randrange(field.order))
        b = ff.element(field, rng.randrange(field.order))
        assert list(ff.multiply(field, a, b)) == _naive_product(p, field.modulus, a, b)


@pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 25])
def test_triple_products_match_naive_oracle(q):
    (p, m), = ff.factorize(q)
    inner = ff.find_irreducible(ff.prime_field(p), m) if m > 1 else (0, 1)
    _, top = _tower(q)
    rng = random.Random(q)
    for _ in range(200):
        a = tuple(rng.randrange(q) for _ in range(3))
        b = tuple(rng.randrange(q) for _ in range(3))
        assert ff.multiply(top, a, b) == _naive_triple_product(p, inner, top.modulus, a, b)


def _operations(field):
    """(q, add, mul) of a finite_field ``Field`` or of reference ``Tables``."""
    if isinstance(field, Tables):
        return len(field.add), lambda a, b: field.add[a][b], lambda a, b: field.mul[a][b]
    return field.order, field.add, field.mul


@pytest.mark.parametrize("make", [
    lambda: GF7,
    lambda: ff.logarithms(_extension(2, 3)),
    lambda: ff.logarithms(_extension(3, 2)),
    lambda: ff.logarithms(_extension(2, 4)),
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
    field = ff.logarithms(_extension(p, m))
    ground = table_prime_field(p)
    reference = tables(table_extension(ground, table_irreducible(ground, m)))
    for a, b in itertools.product(range(q), repeat=2):
        assert field.add(a, b) == reference.add[a][b]
        assert field.mul(a, b) == reference.mul[a][b]


def test_primitive_generates_everything():
    for q in (2, 3, 4, 5):
        _, top = _tower(q)
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
