"""Perfect difference sets in Z_n for n = q^2 + q + 1, q a prime power.

The construction walks the powers of a primitive element g of GF(q^3) and
keeps the exponents whose top coordinate over GF(q) vanishes.  As g^n lies in
GF(q)*, that pattern repeats with period n; one period holds q + 1 such
exponents, and their ordered differences hit every nonzero residue once.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import finite_field as ff


class _Fields(NamedTuple):
    n: int
    elements: tuple[int, ...]


class PerfectDifferenceSet(_Fields):
    """Residues mod n; perfect when ordered differences cover 1..n-1 once each."""

    __slots__ = ()

    def __new__(cls, n: int, elements):
        elements = tuple(elements)
        if n < 1:
            raise ValueError("modulus must be positive")
        if list(elements) != sorted(set(elements)):
            raise ValueError("elements must be strictly increasing")
        if elements and not (0 <= elements[0] and elements[-1] < n):
            raise ValueError(f"elements must lie in 0..{n - 1}")
        return super().__new__(cls, n, elements)

    @classmethod
    def _make(cls, iterable):
        # the base builds through tuple.__new__, past the checks above, and
        # _replace builds through _make
        return cls(*iterable)

    @property
    def k(self) -> int:
        return len(self.elements)


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p^m for a single prime p; None when impossible."""
    factors = ff.factorize(q)
    if len(factors) != 1:
        return None
    return factors[0]


def singer_difference_set(q: int) -> PerfectDifferenceSet:
    """Size-(q+1) perfect difference set in Z_{q^2+q+1}.

    Builds the tower GF(p) -> GF(q) -> GF(q^3) from canonical irreducible
    moduli, takes the canonical primitive element g, and collects the
    exponents e < n of the powers g^e with vanishing top coordinate.  One
    period suffices: g^n = c lies in GF(q)*, so g^(e+n) = c g^e.  Fully
    deterministic, so equal q always yields equal output.  Not re-checked
    here: ``verify_perfect_difference_set`` is for the caller to run.  A q
    that is no prime power raises ``ValueError`` naming the nearest ones.
    """
    decomposition = prime_power(q)
    if decomposition is None:
        below = next(filter(prime_power, range(q - 1, 1, -1)), None)
        above = next(filter(prime_power, itertools.count(max(q + 1, 2))))
        nearest = above if below is None else f"{below} and {above}"
        raise ValueError(f"{q} is not a prime power (nearest: {nearest})")
    p, m = decomposition
    ground = ff.prime_field(p)
    mid = ground if m == 1 else ff.logarithms(ff.extend(ground, m))
    top = ff.extend(mid, 3)
    gamma = ff.element(top, ff.find_primitive(top))
    # Multiplying by gamma over GF(q) is ff.matrix's rows, transposed.  Its characteristic
    # polynomial x^3 - s2 x^2 - s1 x - s0 has s2 the trace, s1 minus the sum of the principal
    # 2x2 minors and s0 the determinant, so by Cayley-Hamilton the top coordinate w(e) of
    # gamma^e obeys w(e + 3) = s2 w(e + 2) + s1 w(e + 1) + s0 w(e), from w(0) = 0.
    rows = ff.matrix(top, gamma)
    (a, d, g), (b, e, h), (c, f, i) = rows
    add, mul, n = mid.add, mid.mul, q * q + q + 1
    minor = lambda x, y, z, t: add(mul(x, y), mul(p - 1, mul(z, t)))  # xy - zt; -1 is p - 1
    s2 = add(add(a, e), i)
    s1 = add(add(minor(b, d, a, e), minor(c, g, a, i)), minor(f, h, e, i))
    s0 = ff.determinant(mid, rows)
    # the three products of a step, tabulated over GF(q) once
    t2, t1, t0 = ([mul(s, x) for x in range(q)] for s in (s2, s1, s0))
    elements, (u, v, w) = [], (0, g, ff.multiply(top, gamma, gamma)[2])
    for exponent in range(n):
        if u == 0:
            elements.append(exponent)
        u, v, w = v, w, add(add(t2[w], t1[v]), t0[u])
    return PerfectDifferenceSet(n, tuple(elements))


def verify_perfect_difference_set(candidate: PerfectDifferenceSet) -> bool:
    """True when every nonzero residue is an ordered difference exactly once.

    Marks residues in n bytes and stops at the first repeated difference.
    """
    n = candidate.n
    seen = bytearray(n)
    seen[0] = 1  # a zero difference counts as a repeat
    for a, b in itertools.permutations(candidate.elements, 2):
        difference = (a - b) % n
        if seen[difference]:
            return False
        seen[difference] = 1
    return 0 not in seen
