"""Perfect difference sets in Z_n for n = q^2 + q + 1, q a prime power.

The construction walks the powers of a primitive element g of GF(q^3) and
keeps the exponents whose top coordinate over GF(q) vanishes.  As g^n lies in
GF(q)*, that pattern repeats with period n; one period holds q + 1 such
exponents, and their ordered differences hit every nonzero residue once.
A brute-force backtracking search over Z_n is an independent existence oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import finite_field as ff


@dataclass(frozen=True)
class PerfectDifferenceSet:
    """Residues mod n; perfect when ordered differences cover 1..n-1 once each."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.n < 1:
            raise ValueError("modulus must be positive")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError("elements must be strictly increasing")
        if self.elements and not (0 <= self.elements[0] and self.elements[-1] < self.n):
            raise ValueError(f"elements must lie in 0..{self.n - 1}")

    @property
    def k(self) -> int:
        return len(self.elements)


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p^m for a single prime p; None when impossible."""
    if q < 2:
        return None
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
    mid = ground if m == 1 else ff.logarithms(ff.extend(ground, ff.find_irreducible(ground, m)))
    top = ff.extend(mid, ff.find_irreducible(mid, 3))
    gamma = ff.element(top, ff.find_primitive(top))
    # Multiplying by gamma is the 3x3 matrix with columns gamma, gamma x, gamma x^2.
    (a, d, g), (b, e, h), (c, f, i) = (ff.multiply(top, gamma, ff.element(top, q ** j))
                                       for j in range(3))
    add, mul, n = mid.add, mid.mul, q * q + q + 1
    elements, (u, v, w) = [], (1, 0, 0)
    for exponent in range(n):
        if w == 0:
            elements.append(exponent)
        u, v, w = (add(add(mul(a, u), mul(b, v)), mul(c, w)),
                   add(add(mul(d, u), mul(e, v)), mul(f, w)),
                   add(add(mul(g, u), mul(h, v)), mul(i, w)))
    return PerfectDifferenceSet(n, tuple(elements))


def verify_perfect_difference_set(candidate: PerfectDifferenceSet) -> bool:
    """True when every nonzero residue is an ordered difference exactly once."""
    n = candidate.n
    differences = ((a - b) % n for a, b in itertools.permutations(candidate.elements, 2))
    return sorted(differences) == list(range(1, n))


def brute_force_difference_set(n: int, k: int) -> PerfectDifferenceSet | None:
    """Lexicographically first perfect difference set of size k in Z_n, or None.

    Backtracking over increasing residue lists starting at 0 (every perfect
    difference set has a translate through 0, so the lexicographic minimum
    starts there), pruning as soon as an ordered difference repeats.  Kept
    free of field machinery so it can cross-check the algebraic construction.
    """
    if k < 1 or k * (k - 1) > n - 1:
        raise ValueError("need 1 <= k and k*(k-1) <= n-1")

    chosen = [0]
    used: set[int] = set()

    def differences_with(candidate: int) -> list[int] | None:
        fresh: list[int] = []
        for a in chosen:
            forward = (candidate - a) % n
            backward = (a - candidate) % n
            if forward == backward:  # residue n/2 would be covered twice
                return None
            if (forward in used or backward in used
                    or forward in fresh or backward in fresh):
                return None
            fresh.append(forward)
            fresh.append(backward)
        return fresh

    def search(lowest: int) -> PerfectDifferenceSet | None:
        if len(chosen) == k:
            if len(used) == n - 1:
                return PerfectDifferenceSet(n, tuple(chosen))
            return None
        for candidate in range(lowest, n):
            fresh = differences_with(candidate)
            if fresh is None:
                continue
            chosen.append(candidate)
            used.update(fresh)
            found = search(candidate + 1)
            if found is not None:
                return found
            used.difference_update(fresh)
            chosen.pop()
        return None

    return search(1)
