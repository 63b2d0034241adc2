"""Finite fields as flat integer data, with canonical (reproducible) choices.

GF(q) is a ``Field``: addition and multiplication tables on the indices
0..q-1.  Polynomials are tuples of such indices, lowest degree first.  An
``Extension`` by a monic irreducible modulus keeps its elements as
coefficient tuples (GF(q^3) as triples); element number i reads its tuple
as base-|F| digits, lowest coordinate least significant, and ``tables``
flattens a small extension such as GF(p^m) into a ``Field`` in that order.
"""

from __future__ import annotations

from typing import NamedTuple


class Field(NamedTuple):
    """GF(q) on the indices 0..q-1; index 0 is zero and index 1 is one."""

    add: list[list[int]]
    mul: list[list[int]]


class Extension(NamedTuple):
    """base[x]/(modulus) with ``order`` elements, each a tuple of deg(modulus) coefficients."""

    base: Field
    modulus: tuple[int, ...]
    order: int


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, as (prime, exponent) pairs."""
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
    return Field([[(a + b) % p for b in range(p)] for a in range(p)],
                 [[a * b % p for b in range(p)] for a in range(p)])


def digits(index: int, base: int, count: int) -> tuple[int, ...]:
    """The ``count`` base-``base`` digits of index, least significant first."""
    return tuple(index // base ** i % base for i in range(count))


def poly_mul(field: Field, a, b) -> list[int]:
    add, mul = field
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        row = mul[x]
        for j, y in enumerate(b):
            out[i + j] = add[out[i + j]][row[y]]
    return out


def poly_mod(field: Field, a, divisor) -> list[int]:
    """Remainder of a by a monic divisor (so no inversion), as deg(divisor) coefficients."""
    add, mul = field
    width = len(divisor) - 1
    rest = list(a) + [0] * (width - len(a))
    while len(rest) > width:
        minus = mul[add[rest.pop()].index(0)]
        for j, c in enumerate(divisor[:-1], len(rest) - width):
            rest[j] = add[rest[j]][minus[c]]
    return rest


def monic_polynomials(field: Field, degree: int):
    """Monic polynomials of exact ``degree``, lower coefficients counting up in base |F|."""
    size = len(field.add)
    for value in range(size ** degree):
        yield digits(value, size, degree) + (1,)


def proper_factor(field: Field, poly) -> tuple[int, ...] | None:
    """A monic factor of degree 1..deg/2 by trial division; None means irreducible."""
    for degree in range(1, (len(poly) - 1) // 2 + 1):
        for candidate in monic_polynomials(field, degree):
            if not any(poly_mod(field, poly, candidate)):
                return candidate
    return None


def find_irreducible(base: Field, degree: int) -> tuple[int, ...]:
    """Canonically smallest monic irreducible of the given degree over base."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    for candidate in monic_polynomials(base, degree):
        if proper_factor(base, candidate) is None:
            return candidate
    raise AssertionError("finite fields admit irreducibles of every degree")


def extend(base: Field, modulus) -> Extension:
    """The extension field base[x]/(modulus), for a monic irreducible modulus."""
    if len(modulus) < 2 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree at least 1")
    factor = proper_factor(base, modulus)
    if factor is not None:
        raise ValueError(f"modulus {modulus} has factor {factor}")
    return Extension(base, modulus, len(base.add) ** (len(modulus) - 1))


def element(field: Extension, index: int) -> tuple[int, ...]:
    """Element number ``index`` in the canonical enumeration 0..order-1."""
    return digits(index, len(field.base.add), len(field.modulus) - 1)


def multiply(field: Extension, a, b) -> tuple[int, ...]:
    return tuple(poly_mod(field.base, poly_mul(field.base, a, b), field.modulus))


def power(field: Extension, a, exponent: int) -> tuple[int, ...]:
    result = element(field, 1)
    while exponent:
        if exponent & 1:
            result = multiply(field, result, a)
        a = multiply(field, a, a)
        exponent >>= 1
    return result


def tables(field: Extension) -> Field:
    """The ``Field`` tables of a small extension, on canonical indices."""
    elements = [element(field, i) for i in range(field.order)]
    index = {e: i for i, e in enumerate(elements)}
    return Field([[index[tuple(field.base.add[x][y] for x, y in zip(a, b))] for b in elements]
                  for a in elements],
                 [[index[multiply(field, a, b)] for b in elements] for a in elements])


def find_primitive(field: Extension) -> int:
    """Index of the first element in canonical order that generates the unit group.

    A nonzero a generates it iff a^((|F| - 1) / r) != 1 for every prime r
    dividing |F| - 1, so |F| - 1 is factored once, for all candidates.
    """
    one = element(field, 1)
    cofactors = [(field.order - 1) // prime for prime, _ in factorize(field.order - 1)]
    for index in range(1, field.order):
        a = element(field, index)
        if all(power(field, a, cofactor) != one for cofactor in cofactors):
            return index
    raise AssertionError("unit groups of finite fields are cyclic")
