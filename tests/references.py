"""Second opinions: answers computed by other means than the shipped code.

Every reference the tests compare ``cyclespec`` against lives here, beside
the helpers that more than one test module needs, so that no test module
imports another.  Slow paths that a fast one replaced in ``src/`` move here
as well.  Nothing here is a test, so pytest collects none from this module.
networkx and sympy are not imported at module level: a helper that needs
one calls ``pytest.importorskip``, and tier-1 skips without it.
"""

import itertools
import math
from collections import Counter, defaultdict
from functools import partial
from typing import NamedTuple

import pytest

from cyclespec import cycleset, graphs, oracle, singer
from cyclespec import finite_field as ff
from cyclespec.graphs import ChordedCycleGraph
from cyclespec.singer import PerfectDifferenceSet


# ------------------------------------------------------- shared helpers

def long_beyond(bound, values):
    """``values`` as test parameters, those above ``bound`` marked ``long``:
    the default run checks the sample up to ``bound``, ``pytest -m long``
    the rest of the range."""
    return [value if value <= bound else pytest.param(value, marks=pytest.mark.long)
            for value in values]


def chord_pool(n):
    """Every possible chord of the n-cycle, in lexicographic order."""
    return [(u, v) for u in range(1, n - 1) for v in range(u + 2, n + 1)
            if (u, v) != (1, n)]


def relabel(graph, mapping):
    return ChordedCycleGraph(graph.n, tuple((mapping[u], mapping[v]) for u, v in graph.chords))


def dihedral_maps(n):
    """The 2n rotation/reflection relabelings, as lookup tables indexed by
    vertex; the identity comes first."""
    maps = []
    for shift in range(n):
        rotation = [0] * (n + 1)
        reflection = [0] * (n + 1)
        for v in range(1, n + 1):
            rotation[v] = (v - 1 + shift) % n + 1
            reflection[v] = (shift - (v - 1)) % n + 1
        maps.append(tuple(rotation))
        maps.append(tuple(reflection))
    return maps


def singer_graph(q):
    """The paper's graph for q: the star on the anchors derived from the Singer set."""
    anchors = cycleset.derive_cycle_set_trace(singer.singer_difference_set(q)).anchors
    return graphs.build_graph(q * q + q + 1, anchors)


def translate(d, shift):
    return PerfectDifferenceSet(d.n, tuple(sorted((a - shift) % d.n for a in d.elements)))


def census_repeat(anchors, n):
    """The smallest length the census of ``anchors`` on the n-cycle repeats,
    or None."""
    counts = Counter(graphs.predicted_spectrum(n, anchors))
    return min((length for length, count in counts.items() if count > 1), default=None)


def bits(lengths):
    """Distinct cycle lengths as the search's bit set (bit L for length L)."""
    return sum(1 << length for length in set(lengths))


def lengths(bits):
    """The ascending lengths in a bit set."""
    return [length for length in range(bits.bit_length()) if bits >> length & 1]


# ------------------------------------------------------- cycle enumeration

def networkx_spectrum(graph):
    """The sorted cycle lengths of a chorded cycle graph, by networkx."""
    nx = pytest.importorskip("networkx")
    reference = nx.Graph(graph.cycle_edges() + list(graph.chords))
    return tuple(sorted(len(cycle) for cycle in nx.simple_cycles(reference)))


def contracted_reference(graph):
    """The contracted enumerator as it was before the bit-set stack walk.

    Same contracted multigraph, but every path is walked in both directions
    and the one whose first edge number exceeds its closing one is dropped;
    edges into vertices below the start are walked and then rejected.
    """
    if not graph.chords:
        return (graph.n,)
    branch = sorted({v for chord in graph.chords for v in chord})
    index = {v: i for i, v in enumerate(branch)}
    edges = [(index[u], index[v], (v - u) % graph.n)
             for u, v in zip(branch, branch[1:] + branch[:1])]
    edges += [(index[u], index[v], 1) for u, v in graph.chords]
    adjacency = [[] for _ in branch]
    for edge, (u, v, weight) in enumerate(edges):
        adjacency[u].append((v, weight, edge))
        adjacency[v].append((u, weight, edge))
    lengths = []
    for start in range(len(branch)):
        on_path = [False] * len(branch)
        on_path[start] = True
        path = [start]
        totals = [0]
        first = -1
        pending = [iter(adjacency[start])]
        while pending:
            step = next(pending[-1], None)
            if step is None:
                pending.pop()
                on_path[path.pop()] = False
                totals.pop()
                continue
            other, weight, edge = step
            if other == start and first < edge:
                lengths.append(totals[-1] + weight)
            elif other > start and not on_path[other]:
                if len(path) == 1:
                    first = edge
                path.append(other)
                on_path[other] = True
                totals.append(totals[-1] + weight)
                pending.append(iter(adjacency[other]))
    return tuple(sorted(lengths))


def adjacency(graph):
    """Sorted neighbour list of every vertex of a chorded cycle graph."""
    neighbors = {v: set() for v in range(1, graph.n + 1)}
    for u, v in graph.cycle_edges() + list(graph.chords):
        neighbors[u].add(v)
        neighbors[v].add(u)
    return {v: sorted(ns) for v, ns in neighbors.items()}


def vertex_cycles(graph):
    """Backtracking on the uncontracted graph, one vertex at a time.

    Each cycle is kept once: from its least vertex, in the direction whose
    second vertex is smaller than its last.
    """
    neighbours = adjacency(graph)
    lengths = []
    for start in range(1, graph.n + 1):
        path = [start]
        on_path = {start}
        pending = [iter(neighbours[start])]
        while pending:
            step = next(pending[-1], None)
            if step is None:
                pending.pop()
                on_path.discard(path.pop())
                continue
            if step == start and len(path) >= 3 and path[1] < path[-1]:
                lengths.append(len(path))
            elif step > start and step not in on_path:
                path.append(step)
                on_path.add(step)
                pending.append(iter(neighbours[step]))
    return tuple(sorted(lengths))


def subset_cycle_lengths(graph):
    """Every edge subset that is 2-regular and connected is one cycle."""
    edges = graph.cycle_edges() + list(graph.chords)
    found = []
    for mask in range(1, 1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        degree = Counter()
        neighbors = defaultdict(list)
        for u, v in subset:
            degree[u] += 1
            degree[v] += 1
            neighbors[u].append(v)
            neighbors[v].append(u)
        if any(d != 2 for d in degree.values()):
            continue
        first = subset[0][0]
        seen = {first}
        stack = [first]
        while stack:
            for other in neighbors[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) == len(degree):
            found.append(len(subset))
    return tuple(sorted(found))


def is_sidon(values) -> bool:
    """True when all sums of two distinct elements are distinct.

    A sum reusing one element twice is not counted.
    """
    ordered = sorted(values)
    if len(set(ordered)) != len(ordered):
        raise ValueError("elements must be distinct")
    if ordered and ordered[0] < 1:
        raise ValueError("elements must be positive")
    sums = [a + b for a, b in itertools.combinations(ordered, 2)]
    return len(set(sums)) == len(sums)


# ------------------------------------------------------- exhaustive search

def pair_canonical(chords, maps):
    """The reference orbit test: chords (sorted pairs) are least among their
    images under every one of the 2n maps."""
    for mapping in maps:
        image = sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                       for u, v in chords)
        if tuple(image) < chords:
            return False
    return True


def vertex_new_cycle_lengths(adjacency, u, v, used):
    """The reference repeat test, walking the graph one vertex at a time:
    the lengths of the cycles the chord {u, v} would add, one per simple
    u-v path, as a bit set; None as soon as a new length repeats one in the
    bit set ``used`` or another new one."""
    fresh = 0
    path = [u]
    on_path = {u}
    pending = [iter(adjacency[u])]
    while pending:
        step = next(pending[-1], None)
        if step is None:
            pending.pop()
            on_path.discard(path.pop())
            continue
        if step == v:
            bit = 1 << (len(path) + 1)
            if (used | fresh) & bit:
                return None
            fresh |= bit
        elif step not in on_path:
            path.append(step)
            on_path.add(step)
            pending.append(iter(adjacency[step]))
    return fresh


def max_chords(n):
    """Largest k with C(k, 2) < n, the depth cap of the unpruned references."""
    k = 1
    while (k + 1) * k // 2 < n:
        k += 1
    return k


def plain_search(n):
    """The unpruned reference: depth-first over chord subsets in
    lexicographic order up to the C(k, 2) < n depth cap, cutting a branch
    only where a length repeats or too few chords remain to beat the
    incumbent.  No orbit test, no counting cap, no forward checking.
    Returns (g, least maximum witness, repeat tests run)."""
    pool = chord_pool(n)
    depth_cap = max_chords(n)
    neighbours = adjacency(ChordedCycleGraph(n))
    used = 1 << n  # bit set of the lengths in use
    chosen = []
    best = ()
    nodes = 0

    def walk(start):
        nonlocal best, nodes, used
        if len(chosen) == depth_cap:
            return
        for index in range(start, len(pool)):
            if len(chosen) + len(pool) - index <= len(best):
                return
            nodes += 1
            u, v = pool[index]
            fresh = vertex_new_cycle_lengths(neighbours, u, v, used)
            if fresh is None:
                continue
            chosen.append(pool[index])
            used |= fresh
            neighbours[u].append(v)
            neighbours[v].append(u)
            if len(chosen) > len(best):
                best = tuple(chosen)
            walk(index + 1)
            neighbours[u].remove(v)
            neighbours[v].remove(u)
            used ^= fresh
            chosen.pop()

    walk(0)
    return n + len(best), best, nodes


def max_single_vertex_chords(n):
    """The star reference: the largest single-vertex anchor set with all
    predicted cycle lengths distinct, and the lexicographically first
    witness of that size.

    Anchors tried in increasing order; each new anchor a contributes lengths
    a, n + 2 - a, and a - s + 2 per earlier anchor s, all of which must be
    fresh.  The maximum grows like the largest Sidon set in {3..n-1}.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    best = ()
    chosen = []
    used = {n}

    def walk(lowest):
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        for anchor in range(lowest, n):
            if len(chosen) + (n - anchor) <= len(best):
                return
            fresh = []
            ok = True
            for length in [anchor, n + 2 - anchor] + [anchor - s + 2 for s in chosen]:
                if length in used or length in fresh:
                    ok = False
                    break
                fresh.append(length)
            if not ok:
                continue
            chosen.append(anchor)
            used.update(fresh)
            walk(anchor + 1)
            used.difference_update(fresh)
            chosen.pop()

    walk(3)
    return len(best), best


def naive_g(n):
    """Sweep every chord subset up to the depth cap; no pruning at all."""
    pool = chord_pool(n)
    best = 0
    for size in range(max_chords(n), -1, -1):
        for subset in itertools.combinations(pool, size):
            spectrum = oracle.enumerate_cycles(ChordedCycleGraph(n, subset))
            if not oracle.has_repeat(spectrum):
                best = size
                break
        if best:
            break
    return n + best


def counting_cap(n):
    """Largest k with k(k + 3)/2 <= n - 3: the plain counting bound, without
    the zero-slack cut of ``search.chord_cap``."""
    return (math.isqrt(8 * n - 15) - 3) // 2


# ------------------------------------------------------- finite fields

def extension(p, degree):
    return ff.extend(ff.prime_field(p), degree)


def tower(q):
    """(GF(q), GF(q^3) over it) the way the Singer construction builds them."""
    (p, m), = ff.factorize(q)
    mid = ff.prime_field(p) if m == 1 else ff.logarithms(extension(p, m))
    return mid, ff.extend(mid, 3)


def trial_division_irreducible(base, degree):
    """The search ``find_irreducible`` replaced: the first monic polynomial of
    ``degree`` in canonical order that ``proper_factor`` finds no factor of."""
    return next(poly for poly in ff.monic_polynomials(base, degree)
                if ff.proper_factor(base, poly) is None)


def conjugate_norm(field, a):
    """The norm ``determinant(base, matrix(field, a))`` replaced in ``find_primitive``:
    the product of the d conjugates a^(|B|^j) in the extension.  As a -> a^|B| fixes
    the base B, it is B-linear, so its images of x, ..., x^(d - 1) are built once
    and each conjugate is the linear image of the last."""
    base, degree = field.base, len(field.modulus) - 1
    images = [ff.power(partial(ff.multiply, field), ff.element(field, base.order), base.order)]
    for _ in range(degree - 2):
        images.append(ff.multiply(field, images[-1], images[0]))
    conjugate = norm = tuple(a)
    for _ in range(degree - 1):
        image = (conjugate[0],) + (0,) * (degree - 1)
        for c, column in zip(conjugate[1:], images):
            image = tuple(base.add(o, base.mul(c, y)) for o, y in zip(image, column))
        conjugate, norm = image, ff.multiply(field, norm, image)
    assert not any(norm[1:]), "a norm lies in the base field"
    return norm[0]


def index_of(coords, base):
    return sum(c * base ** i for i, c in enumerate(coords))


def naive_product(p, modulus, a, b):
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


def naive_triple_product(p, inner, cubic, a, b):
    """GF(q^3) product with each GF(q) coefficient as a vector over GF(p).

    Coefficients are multiplied by ``naive_product`` modulo ``inner`` (the
    GF(q) modulus over GF(p)) and added coordinatewise mod p, so none of the
    field tables under test take part.
    """
    m = len(inner) - 1
    vec = lambda index: [index // p ** i % p for i in range(m)]
    times = lambda x, y: naive_product(p, inner, x, y)
    plus = lambda x, y: [(s + t) % p for s, t in zip(x, y)]
    out = [[0] * m for _ in range(5)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = plus(out[i + j], times(vec(x), vec(y)))
    for top in (4, 3):
        minus = [(-c) % p for c in out[top]]
        for j in range(3):
            out[top - 3 + j] = plus(out[top - 3 + j], times(minus, vec(cubic[j])))
    return tuple(index_of(c, p) for c in out[:3])


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


# ------------------------------------------------------- difference sets

def full_walk(q: int) -> tuple[int, ...]:
    """Reference: walk all q^3 - 1 powers of the same primitive element and
    fold each exponent with vanishing top coordinate mod n."""
    _, top = tower(q)
    gamma = ff.element(top, ff.find_primitive(top))
    n = q * q + q + 1
    residues = set()
    power = (1, 0, 0)
    for exponent in range(top.order - 1):
        if power[2] == 0:
            residues.add(exponent % n)
        power = ff.multiply(top, power, gamma)
    return tuple(sorted(residues))


def matrix_walk(q: int) -> tuple[int, ...]:
    """The walk the three-term recurrence replaced: one period of powers of the
    same primitive element, each from the last by the 3x3 matrix over GF(q)
    of multiplication by it, keeping the exponents with vanishing top coordinate."""
    mid, top = tower(q)
    gamma = ff.element(top, ff.find_primitive(top))
    (a, d, g), (b, e, h), (c, f, i) = (ff.multiply(top, gamma, ff.element(top, q ** j))
                                       for j in range(3))
    add, mul = mid.add, mid.mul
    elements, (u, v, w) = [], (1, 0, 0)
    for exponent in range(q * q + q + 1):
        if w == 0:
            elements.append(exponent)
        u, v, w = (add(add(mul(a, u), mul(b, v)), mul(c, w)),
                   add(add(mul(d, u), mul(e, v)), mul(f, w)),
                   add(add(mul(g, u), mul(h, v)), mul(i, w)))
    return tuple(elements)


def sorted_differences_perfect(candidate):
    """The verifier as it was before the residue marks: all k(k - 1) ordered
    differences, sorted, must be exactly 1..n - 1."""
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


# ------------------------------------------------------- graph text

# The text formats as the template parser reads them, copied so that it does
# not depend on ``graphs``: the opening line, the edge-line template, the
# closing line and what a malformed edge line should be.  Between its two
# fields the template holds the separator (blank: any whitespace) and after
# them the terminator of an edge line.
TEMPLATE_FORMATS = {
    "edgelist": ("", "{} {}", "", "two vertex labels"),
    "dot": ("graph {", "  {} -- {};", "}", "'u -- v;'"),
}


def template_parse_edges(text, fmt):
    """The edge-line parser the per-format patterns of ``graphs`` replaced:
    it works out each format's grammar from the export template."""
    opening, template, closing, expected = TEMPLATE_FORMATS[fmt]
    _, separator, terminator = template.strip().split("{}")
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped in ("", opening, closing):
            continue
        parts = stripped.removesuffix(terminator).split(separator.strip() or None)
        parts = [part.strip() for part in parts]
        if (not stripped.endswith(terminator) or len(parts) != 2
                or not all(part.isascii() and part.isdigit() for part in parts)):
            raise ValueError(f"line {lineno}: expected {expected}, got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 1 or v < 1:
            raise ValueError(f"line {lineno}: vertex labels start at 1")
        edges.append((u, v))
    return edges
