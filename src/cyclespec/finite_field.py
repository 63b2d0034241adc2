"""Finite fields as flat integer data, with canonical (reproducible) choices.

GF(q) is a ``Field``: ``add`` and ``mul`` on the indices 0..q-1, mod p for a
prime q and by O(q) log tables (``logarithms``) for q = p^m.  Polynomials are
tuples of indices, lowest degree first.  An ``Extension`` keeps its elements as
coefficient tuples; element number i reads its tuple as base-|F| digits.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple


class Field(NamedTuple):
    """GF(q) on the indices 0..q-1; index c < p is the constant c, so 0 is zero and 1 is one."""

    order: int
    characteristic: int
    add: Callable[[int, int], int]
    mul: Callable[[int, int], int]


class Extension(NamedTuple):
    """base[x]/(modulus), ``order`` tuples of deg(modulus) coefficients."""

    base: Field
    modulus: tuple[int, ...]
    order: int


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division, as (prime, exponent) pairs; [] for n < 2."""
    factors, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e, n = e + 1, n // d
        if e:
            factors.append((d, e))
        d += 1
    return factors + [(n, 1)] if n > 1 else factors


def prime_field(p: int) -> Field:
    """GF(p) for a prime p."""
    if factorize(p) != [(p, 1)]:
        raise ValueError(f"{p} is not prime")
    return Field(p, p, lambda a, b: (a + b) % p, lambda a, b: a * b % p)


def digits(index: int, base: int, count: int) -> tuple[int, ...]:
    """The ``count`` base-``base`` digits of index, least significant first."""
    return tuple(index // base ** i % base for i in range(count))


def monic_polynomials(field: Field, degree: int):
    """Monic polynomials of exact ``degree``, lower coefficients counting up in base |F|."""
    for value in range(field.order ** degree):
        yield digits(value, field.order, degree) + (1,)


def proper_factor(field: Field, poly) -> tuple[int, ...] | None:
    """A monic factor of degree 1..deg/2 by trial division; None means irreducible."""
    for degree in range(1, (len(poly) - 1) // 2 + 1):
        for candidate in monic_polynomials(field, degree):
            if not any(_remainder(field, list(poly), candidate)):
                return candidate
    return None


def _remainder(field: Field, coefficients: list[int], monic) -> list[int]:
    """``coefficients`` reduced in place modulo the ``monic`` polynomial: each
    nonzero top term t x^k, from the top down, adds -t (monic - x^deg) x^(k - deg)."""
    add, mul, minus_one = field.add, field.mul, field.characteristic - 1
    degree, low = len(monic) - 1, monic[:-1]
    while len(coefficients) > degree:
        top = coefficients.pop()
        if top:
            top = mul(minus_one, top)
            for j, c in enumerate(low, len(coefficients) - degree):
                coefficients[j] = add(coefficients[j], mul(top, c))
    return coefficients


def find_irreducible(base: Field, degree: int) -> tuple[int, ...]:
    """Canonically smallest monic irreducible of the given degree over base.

    The canonical order runs through blocks of |F| candidates c0 + x h(x)
    with h fixed.  Such a candidate has the root t exactly when c0 = -t h(t),
    so one pass over t collects the block's root image.  A c0 outside it
    has no root, which for degree <= 3 proves irreducibility; a higher
    degree still goes through ``proper_factor``.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    add, mul, minus_one = base.add, base.mul, base.characteristic - 1
    for upper in monic_polynomials(base, degree - 1):
        image = set()
        for t in range(base.order):
            value = 0
            for c in reversed(upper):
                value = add(mul(value, t), c)
            image.add(mul(minus_one, mul(value, t)))
        for c0 in range(base.order):
            candidate = (c0,) + upper
            if c0 not in image and (degree <= 3 or proper_factor(base, candidate) is None):
                return candidate
    raise AssertionError("finite fields admit irreducibles of every degree")


def extend(base: Field, degree: int) -> Extension:
    """The canonical extension of ``degree`` >= 2: base[x] modulo ``find_irreducible``,
    whose search proves its result irreducible, so no second proof is made here."""
    return Extension(base, find_irreducible(base, degree), base.order ** degree)


def element(field: Extension, index: int) -> tuple[int, ...]:
    """Element number ``index`` in the canonical enumeration 0..order-1."""
    return digits(index, field.base.order, len(field.modulus) - 1)


def multiply(field: Extension, a, b) -> tuple[int, ...]:
    """a b as the schoolbook product, skipping a's zero coefficients, then ``_remainder``."""
    add, mul = field.base.add, field.base.mul
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                product[j] = add(product[j], mul(x, y))
    return tuple(_remainder(field.base, product, field.modulus))


def power(product, a, exponent: int):
    """a^exponent under ``product``, for an exponent of at least 1, squaring from
    the top bit down: bit_length + popcount - 2 products."""
    result = a
    for bit in bin(exponent)[3:]:  # the bits below the top one
        result = product(result, result)
        if bit == "1":
            result = product(result, a)
    return result


def logarithms(field: Extension) -> Field:
    """GF(p^m) over GF(p) as exp/log tables of its canonical primitive element g and
    Zech logs log(1 + g^k).  Zero's log s leads past the doubled exp table into zeros,
    and the Zech table is padded so that a zero summand yields the other one."""
    p, order, s = field.base.order, field.order, 2 * (field.order - 1)
    g = element(field, find_primitive(field))
    exp, current = [1], g
    for _ in range(order - 2):  # the indices of g^0 .. g^(order - 2)
        exp.append(sum(c * p ** i for i, c in enumerate(current)))
        current = multiply(field, current, g)
    log = [s] + [k for _, k in sorted(zip(exp, range(order - 1)))]
    exp = exp * 2 + [0] * (s + 1)
    zech = ([k - s for k in range(order - 1)]
            + [log[a - a % p + (a + 1) % p] for a in exp[:s + 1]] + [0] * (order - 1))
    return Field(order, p, lambda a, b: exp[log[a] + zech[log[b] - log[a] + s]],
                 lambda a, b: exp[log[a] + log[b]])


def matrix(field: Extension, a) -> list[tuple[int, ...]]:
    """Multiplication by a over the base, transposed: rows a, a x, ..., a x^(d - 1), by shifts."""
    rows = [tuple(a)]
    for _ in range(len(field.modulus) - 2):
        rows.append(tuple(_remainder(field.base, [0, *rows[-1]], field.modulus)))
    return rows


def determinant(field: Field, rows) -> int:
    """The determinant over ``field``, expanded along the first row, skipping zero entries."""
    if len(rows) == 1:
        return rows[0][0]
    total, sign = 0, 1
    for j, x in enumerate(rows[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total = field.add(total, field.mul(sign, field.mul(x, determinant(field, minor))))
        sign = field.mul(field.characteristic - 1, sign)
    return total


def find_primitive(field: Extension) -> int:
    """Index of the first element in canonical order that generates the unit group.

    A nonzero a generates it iff a^((|F| - 1)/r) != 1 for every prime r
    dividing |F| - 1, and |F| - 1 = (|B| - 1) m is factored once, for all
    candidates (B is the base field).  The tests split by r:

    - r divides |B| - 1 (norm test): a^((|F| - 1)/r) = (a^m)^((|B| - 1)/r), and
      the norm N = a^m is the determinant of multiplication by a over B (Lidl &
      Niederreiter, *Finite Fields*, §2.3), so N^((|B| - 1)/r) is taken in B.
    - otherwise r divides m (line test): a^((|F| - 1)/r) = (a^(m/r))^(|B| - 1),
      and b^(|B| - 1) = 1 exactly for the b in B*, so the test is that
      a^(m/r) has a nonzero coordinate above the constant one.

    Norm tests run first, as they are the ones that reject; over GF(2) there are
    none, and no norm is computed.  The constants are skipped, as their units are
    too few.  GF(7^3) takes 6 products (328 by the cofactors alone), GF(19^3) 2 (276).
    """
    base, units, product = field.base, field.base.order - 1, partial(multiply, field)
    primes = [prime for prime, _ in factorize(field.order - 1)]
    norm_cofactors = [units // prime for prime in primes if units % prime == 0]
    line_cofactors = [(field.order - 1) // units // prime for prime in primes if units % prime]
    for index in range(base.order, field.order):
        a = element(field, index)
        if norm_cofactors:
            norm = determinant(base, matrix(field, a))
            if 1 in (power(base.mul, norm, cofactor) for cofactor in norm_cofactors):
                continue
        if all(any(power(product, a, cofactor)[1:]) for cofactor in line_cofactors):
            return index
    raise AssertionError("unit groups of finite fields are cyclic")
