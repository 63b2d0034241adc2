"""Labeled cycle-plus-chords graphs, their predicted cycle census, and
serialization (edge list, DOT, graph6)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .cycleset import complement_lengths, gap_lengths


class ChordOutOfRange(ValueError):
    """Chord endpoint outside the vertex range, or coinciding with a cycle edge."""


class ParseError(ValueError):
    """Serialized graph text is malformed."""


class NoHamiltonCycleLabeled(ValueError):
    """Edge set lacks the labeled cycle 1-2-...-n-1."""


class GraphFormat(Enum):
    EDGE_LIST = "edgelist"
    DOT = "dot"
    GRAPH6 = "graph6"


@dataclass(frozen=True)
class ChordedCycleGraph:
    """The cycle on vertices 1..n (edges {i, i+1} and {n, 1}) plus chords.

    Chords are stored normalized: endpoints ascending within each pair, pairs
    sorted.  Two graphs are equal exactly when n and the chord sets agree.
    """

    n: int
    chords: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 vertices")
        normalized = []
        for chord in self.chords:
            u, v = chord
            if not (1 <= u <= self.n and 1 <= v <= self.n) or u == v:
                raise ChordOutOfRange(f"bad chord {chord} on {self.n} vertices")
            u, v = min(u, v), max(u, v)
            if v - u == 1 or (u == 1 and v == self.n):
                raise ChordOutOfRange(f"chord {chord} duplicates a cycle edge")
            normalized.append((u, v))
        ordered = tuple(sorted(normalized))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate chords")
        object.__setattr__(self, "chords", ordered)

    @property
    def edge_count(self) -> int:
        return self.n + len(self.chords)

    def cycle_edges(self) -> list[tuple[int, int]]:
        edges = [(i, i + 1) for i in range(1, self.n)]
        edges.append((self.n, 1))
        return edges

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        neighbors: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.cycle_edges() + list(self.chords):
            neighbors[u].add(v)
            neighbors[v].add(u)
        return {v: tuple(sorted(ns)) for v, ns in neighbors.items()}


@dataclass(frozen=True)
class CycleSpectrum:
    """Multiset of cycle lengths, stored sorted."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths)))

    def counts(self) -> Counter:
        return Counter(self.lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return iter(self.lengths)

    def __contains__(self, length: int) -> bool:
        return length in self.lengths


def _checked_anchors(n: int, values) -> list[int]:
    if n < 3:
        raise ValueError("need at least 3 vertices")
    anchors = sorted(values)
    for a in anchors:
        if not 3 <= a <= n - 1:
            raise ChordOutOfRange(f"chord anchor {a} must lie in 3..{n - 1}")
    if len(set(anchors)) != len(anchors):
        raise ValueError("duplicate anchors")
    return anchors


def build_graph(n: int, values) -> ChordedCycleGraph:
    """The n-cycle plus one chord {1, a} per anchor a."""
    anchors = _checked_anchors(n, values)
    return ChordedCycleGraph(n, tuple((1, a) for a in anchors))


def predicted_spectrum(n: int, values) -> CycleSpectrum:
    """Closed-form census of the cycle lengths of ``build_graph(n, values)``.

    Exactly one Hamilton cycle (length n); per anchor a the short and long
    single-chord cycles (lengths a and n + 2 - a); per anchor pair a < b one
    two-chord cycle (length b - a + 2).  1 + 2|S| + C(|S|, 2) cycles total,
    whatever the anchors are; distinctness of the entries is a separate
    question answered by the cycle-set verifier.
    """
    anchors = _checked_anchors(n, values)
    lengths = [n] + anchors + complement_lengths(anchors, n) + gap_lengths(anchors)
    return CycleSpectrum(tuple(lengths))


def export_graph(graph: ChordedCycleGraph, fmt: GraphFormat) -> str:
    """Serialize; output is byte-identical for equal graphs.

    Edge list: one "u v" line per edge, cycle edges first in cycle order
    (so the last is "n 1"), then chords sorted ascending.
    """
    if fmt is GraphFormat.EDGE_LIST:
        lines = [f"{u} {v}" for u, v in graph.cycle_edges()]
        lines += [f"{u} {v}" for u, v in graph.chords]
        return "\n".join(lines) + "\n"
    if fmt is GraphFormat.DOT:
        lines = ["graph {"]
        lines += [f"  {u} -- {v};" for u, v in graph.cycle_edges()]
        lines += [f"  {u} -- {v};" for u, v in graph.chords]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt is GraphFormat.GRAPH6:
        return _to_graph6(graph) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def import_graph(text: str, fmt: GraphFormat) -> ChordedCycleGraph:
    """Inverse of export_graph on its image.

    Vertex count is the largest label seen (edge list, DOT) or the header
    (graph6); consecutive labels and {n, 1} are the cycle, everything
    else must be a valid chord.
    """
    if fmt is GraphFormat.EDGE_LIST:
        edges = _parse_edge_lines(text)
    elif fmt is GraphFormat.DOT:
        edges = _parse_dot(text)
    elif fmt is GraphFormat.GRAPH6:
        stripped = text.strip()
        if not stripped or any(ch.isspace() for ch in stripped):
            raise ParseError("expected a single graph6 line")
        n, edges = _from_graph6(stripped)
        return _assemble(n, edges)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if not edges:
        raise ParseError("no edges found")
    n = max(max(u, v) for u, v in edges)
    return _assemble(n, edges)


def _parse_edge_lines(text: str) -> list[tuple[int, int]]:
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(f"line {lineno}: expected two vertex labels, got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 1 or v < 1:
            raise ParseError(f"line {lineno}: vertex labels start at 1")
        edges.append((u, v))
    return edges


def _parse_dot(text: str) -> list[tuple[int, int]]:
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped in ("graph {", "}"):
            continue
        if not stripped.endswith(";"):
            raise ParseError(f"line {lineno}: expected 'u -- v;', got {line!r}")
        body = stripped[:-1]
        parts = [p.strip() for p in body.split("--")]
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(f"line {lineno}: expected 'u -- v;', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 1 or v < 1:
            raise ParseError(f"line {lineno}: vertex labels start at 1")
        edges.append((u, v))
    return edges


def _assemble(n: int, edges: list[tuple[int, int]]) -> ChordedCycleGraph:
    if n < 3:
        raise ParseError("need at least 3 vertices")
    multiplicity = Counter((min(u, v), max(u, v)) for u, v in edges)
    repeated = sorted(e for e, c in multiplicity.items() if c > 1)
    if repeated:
        raise ParseError(f"repeated edge {repeated[0]}")
    cycle = {(min(u, v), max(u, v)) for u, v in ChordedCycleGraph(n).cycle_edges()}
    missing = sorted(e for e in cycle if e not in multiplicity)
    if missing:
        raise NoHamiltonCycleLabeled(f"missing cycle edge {missing[0]}")
    chords = sorted(e for e in multiplicity if e not in cycle)
    try:
        return ChordedCycleGraph(n, tuple(chords))
    except ValueError as exc:  # self-loops and similar malformed chords
        raise ParseError(str(exc)) from exc


# graph6: the vertex count (one byte n + 63 for n <= 62, otherwise "~" and
# three 6-bit bytes), then the upper-triangle adjacency bits in column order,
# packed big-endian into 6-bit groups, each offset by 63.
GRAPH6_MAX_VERTICES = 258047  # the largest n the "~" + 3-byte header carries


def _to_graph6(graph: ChordedCycleGraph) -> str:
    n = graph.n
    if n > GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 output supports at most {GRAPH6_MAX_VERTICES} vertices")
    adjacent = set()
    for u, v in graph.cycle_edges() + list(graph.chords):
        adjacent.add((min(u, v) - 1, max(u, v) - 1))
    bits = []
    for column in range(1, n):
        for row in range(column):
            bits.append(1 if (row, column) in adjacent else 0)
    header = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    chars = [chr(value + 63) for value in header]
    for start in range(0, len(bits), 6):
        chunk = bits[start:start + 6]
        chunk += [0] * (6 - len(chunk))
        value = 0
        for bit in chunk:
            value = value * 2 + bit
        chars.append(chr(value + 63))
    return "".join(chars)


def _from_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    data = [ord(ch) - 63 for ch in line]
    if not data or not all(0 <= d < 64 for d in data):
        raise ParseError("invalid graph6 characters")
    if data[0] < 63:
        n, data = data[0], data[1:]
    elif len(data) < 4:
        raise ParseError("truncated graph6 header")
    elif data[1] == 63:
        raise ParseError(f"graph6 input beyond {GRAPH6_MAX_VERTICES} vertices is unsupported")
    else:
        n, data = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    need = n * (n - 1) // 2
    if len(data) != (need + 5) // 6:
        raise ParseError("graph6 bit vector has the wrong length")
    bits = []
    for d in data:
        for shift in range(5, -1, -1):
            bits.append((d >> shift) & 1)
    if any(bits[need:]):
        raise ParseError("graph6 padding bits must be zero")
    edges = []
    index = 0
    for column in range(1, n):
        for row in range(column):
            if bits[index]:
                edges.append((row + 1, column + 1))
            index += 1
    return n, edges
