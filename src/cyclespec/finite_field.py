"""Finite fields as flat integer data, with canonical (reproducible) choices.

GF(q) is a ``Field``: ``add`` and ``mul`` on the indices 0..q-1, mod p for a
prime q and by O(q) log tables (``logarithms``) for q = p^m.  Polynomials are
tuples of indices, lowest degree first.  An ``Extension`` keeps its elements as
coefficient tuples; element number i reads its tuple as base-|F| digits.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class Field(NamedTuple):
    """GF(q) on the indices 0..q-1; index c < p is the constant c, so 0 is zero and 1 is one."""

    order: int
    characteristic: int
    add: Callable[[int, int], int]
    mul: Callable[[int, int], int]


class Extension(NamedTuple):
    """base[x]/(modulus), ``order`` tuples of deg(modulus) coefficients; x^deg = ``fold``."""

    base: Field
    modulus: tuple[int, ...]
    order: int
    fold: tuple[int, ...]


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
    add, mul, minus_one = field.add, field.mul, field.characteristic - 1
    for degree in range(1, (len(poly) - 1) // 2 + 1):
        for candidate in monic_polynomials(field, degree):
            rest = list(poly)
            while len(rest) > degree:
                top = mul(minus_one, rest.pop())
                for j, c in enumerate(candidate[:-1], len(rest) - degree):
                    rest[j] = add(rest[j], mul(top, c))
            if not any(rest):
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
    fold = tuple(base.mul(base.characteristic - 1, c) for c in modulus[:-1])
    return Extension(base, tuple(modulus), base.order ** len(fold), fold)


def element(field: Extension, index: int) -> tuple[int, ...]:
    """Element number ``index`` in the canonical enumeration 0..order-1."""
    return digits(index, field.base.order, len(field.fold))


def multiply(field: Extension, a, b) -> tuple[int, ...]:
    """a b as the sum of b_j a x^j; unrolled for cubic moduli, as in GF(q^3)."""
    add, mul = field.base.add, field.base.mul
    if len(field.fold) == 3:
        (a0, a1, a2), (b0, b1, b2), (r0, r1, r2) = a, b, field.fold
        c4 = mul(a2, b2)  # x^3 = fold: c4 x^4 = c4 x x^3 folds first, then c3 x^3
        c3 = add(add(mul(a1, b2), mul(a2, b1)), mul(r2, c4))
        c2 = add(add(add(mul(a0, b2), mul(a1, b1)), mul(a2, b0)), mul(r1, c4))
        c1 = add(add(add(mul(a0, b1), mul(a1, b0)), mul(r0, c4)), mul(r1, c3))
        return add(mul(a0, b0), mul(r0, c3)), c1, add(c2, mul(r2, c3))
    out = (0,) * len(a)
    for c in b:
        out = tuple(add(o, mul(c, x)) for o, x in zip(out, a))
        a = tuple(add(low, mul(a[-1], r)) for low, r in zip((0,) + a[:-1], field.fold))
    return out


def power(field: Extension, a, exponent: int) -> tuple[int, ...]:
    result = element(field, 1)
    while exponent:
        if exponent & 1:
            result = multiply(field, result, a)
        a = multiply(field, a, a)
        exponent >>= 1
    return result


def logarithms(field: Extension) -> Field:
    """GF(p^m) over GF(p) as exp/log tables of its canonical primitive element g and
    Zech logs log(1 + g^k).  Zero's log s leads past the doubled exp table into zeros,
    and the Zech table is padded so that a zero summand yields the other one."""
    p, order, one, s = field.base.order, field.order, element(field, 1), 2 * (field.order - 1)
    # find_primitive's choice, found while the exp table fills: calling that module
    # attribute would add a second span per tower build to the benchmark's trace.
    for index in range(p, order):  # the constants' units have only p - 1 powers
        exp, current = [1], element(field, index)
        while current != one:
            exp.append(sum(c * p ** i for i, c in enumerate(current)))
            current = multiply(field, current, element(field, index))
        if len(exp) == order - 1:
            break
    log = [s] + [k for _, k in sorted(zip(exp, range(order - 1)))]
    exp = exp * 2 + [0] * (s + 1)
    zech = ([k - s for k in range(order - 1)]
            + [log[a - a % p + (a + 1) % p] for a in exp[:s + 1]] + [0] * (order - 1))
    return Field(order, p, lambda a, b: exp[log[a] + zech[log[b] - log[a] + s]],
                 lambda a, b: exp[log[a] + log[b]])


def find_primitive(field: Extension) -> int:
    """Index of the first element in canonical order that generates the unit group.

    A nonzero a generates it iff a^((|F| - 1) / r) != 1 for every prime r
    dividing |F| - 1, so |F| - 1 is factored once, for all candidates.  The
    constants of a proper extension are skipped, as their units are too few.
    """
    one = element(field, 1)
    cofactors = [(field.order - 1) // prime for prime, _ in factorize(field.order - 1)]
    for index in range(field.base.order if len(one) > 1 else 1, field.order):
        a = element(field, index)
        if all(power(field, a, cofactor) != one for cofactor in cofactors):
            return index
    raise AssertionError("unit groups of finite fields are cyclic")
