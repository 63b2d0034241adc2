"""Labeled cycle-plus-chords graphs, their predicted cycle census, and
serialization (edge list, DOT, graph6)."""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from typing import NamedTuple


class _Fields(NamedTuple):
    n: int
    chords: tuple[tuple[int, int], ...]


class ChordedCycleGraph(_Fields):
    """The cycle on vertices 1..n (edges {i, i+1} and {n, 1}) plus chords.

    Chords are stored normalized: endpoints ascending within each pair, pairs
    sorted.  Two graphs are equal exactly when n and the chord sets agree; a
    graph is also equal to the plain tuple (n, chords).
    """

    __slots__ = ()

    def __new__(cls, n: int, chords=()):
        if n < 3:
            raise ValueError("need at least 3 vertices")
        normalized = []
        for chord in chords:
            u, v = chord
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ValueError(f"bad chord {chord} on {n} vertices")
            u, v = min(u, v), max(u, v)
            if v - u == 1 or (u == 1 and v == n):
                raise ValueError(f"chord {chord} duplicates a cycle edge")
            normalized.append((u, v))
        ordered = tuple(sorted(normalized))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate chords")
        return super().__new__(cls, n, ordered)

    @classmethod
    def _make(cls, iterable):
        # the base builds through tuple.__new__, past the checks above, and
        # _replace builds through _make
        return cls(*iterable)

    @property
    def edge_count(self) -> int:
        return self.n + len(self.chords)

    def cycle_edges(self) -> list[tuple[int, int]]:
        edges = [(i, i + 1) for i in range(1, self.n)]
        edges.append((self.n, 1))
        return edges


def _checked_anchors(n: int, values) -> list[int]:
    if n < 3:
        raise ValueError("need at least 3 vertices")
    anchors = sorted(values)
    for a in anchors:
        if not 3 <= a <= n - 1:
            raise ValueError(f"chord anchor {a} must lie in 3..{n - 1}")
    if len(set(anchors)) != len(anchors):
        raise ValueError("duplicate anchors")
    return anchors


def build_graph(n: int, values) -> ChordedCycleGraph:
    """The n-cycle plus one chord {1, a} per anchor a."""
    anchors = _checked_anchors(n, values)
    return ChordedCycleGraph(n, tuple((1, a) for a in anchors))


def predicted_spectrum(n: int, values) -> tuple[int, ...]:
    """Closed-form census of the cycle lengths of ``build_graph(n, values)``.

    With the marks 2 < anchors < n, each pair of marks a < b closes one
    cycle of length b - a + 2: (2, n) the Hamilton cycle, (2, a) and (a, n)
    the two cycles through chord {1, a}, and two anchors the cycle through
    both chords.  The lengths, returned sorted, repeat exactly when the marks
    are no Golomb ruler, which is for ``oracle.has_repeat`` to say.
    """
    marks = [2, *_checked_anchors(n, values), n]
    return tuple(sorted(b - a + 2 for a, b in itertools.combinations(marks, 2)))


# Per text format: the opening line, the edge-line template, the closing
# line, the pattern that a stripped edge line must match in full, and what
# the error message says a malformed edge line should be.
_TEXT_FORMATS = {
    "edgelist": ("", "{} {}", "", re.compile(r"([0-9]+)\s+([0-9]+)"), "two vertex labels"),
    "dot": ("graph {", "  {} -- {};", "}", re.compile(r"([0-9]+)\s*--\s*([0-9]+)\s*;"),
            "'u -- v;'"),
}
FORMATS = (*_TEXT_FORMATS, "graph6")  # the names export_graph and import_graph take


def export_graph(graph: ChordedCycleGraph, fmt: str) -> str:
    """Serialize; output is byte-identical for equal graphs.

    Edge list: one "u v" line per edge, cycle edges first in cycle order
    (so the last is "n 1"), then chords sorted ascending.
    """
    if fmt == "graph6":
        return _to_graph6(graph) + "\n"
    if fmt not in _TEXT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    opening, template, closing, _, _ = _TEXT_FORMATS[fmt]
    lines = [template.format(u, v) for u, v in graph.cycle_edges() + list(graph.chords)]
    return "".join(line + "\n" for line in [opening, *lines, closing] if line)


def import_graph(text: str, fmt: str) -> ChordedCycleGraph:
    """Inverse of export_graph on its image.

    Vertex count is the largest label seen (edge list, DOT) or the header
    (graph6); consecutive labels and {n, 1} are the cycle, everything
    else must be a valid chord.  Malformed text raises ValueError.
    """
    if fmt == "graph6":
        stripped = text.strip()
        if not stripped or any(ch.isspace() for ch in stripped):
            raise ValueError("expected a single graph6 line")
        return _assemble(*_from_graph6(stripped))
    edges = _parse_edges(text, fmt)
    if not edges:
        raise ValueError("no edges found")
    return _assemble(max(max(edge) for edge in edges), edges)


def _parse_edges(text: str, fmt: str) -> list[tuple[int, int]]:
    if fmt not in _TEXT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    opening, _, closing, pattern, expected = _TEXT_FORMATS[fmt]
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped in ("", opening, closing):
            continue
        match = pattern.fullmatch(stripped)
        if match is None:
            raise ValueError(f"line {lineno}: expected {expected}, got {line!r}")
        u, v = int(match[1]), int(match[2])
        if u < 1 or v < 1:
            raise ValueError(f"line {lineno}: vertex labels start at 1")
        edges.append((u, v))
    return edges


def _assemble(n: int, edges: list[tuple[int, int]]) -> ChordedCycleGraph:
    if n < 3:
        raise ValueError("need at least 3 vertices")
    multiplicity = Counter((min(u, v), max(u, v)) for u, v in edges)
    repeated = sorted(e for e, c in multiplicity.items() if c > 1)
    if repeated:
        raise ValueError(f"repeated edge {repeated[0]}")
    # the cycle edges in sorted order, scanned lazily: a missing one is found
    # after at most len(edges) + 1 steps, however large n is
    for edge in itertools.chain([(1, 2), (1, n)], ((i, i + 1) for i in range(2, n))):
        if edge not in multiplicity:
            raise ValueError(f"missing cycle edge {edge}")
    chords = sorted((u, v) for u, v in multiplicity if v - u != 1 and (u, v) != (1, n))
    return ChordedCycleGraph(n, tuple(chords))  # rejects self-loops


# graph6: the vertex count (one byte n + 63 for n <= 62, otherwise "~" and
# three 6-bit bytes), then the upper-triangle adjacency bits in column order,
# packed big-endian into 6-bit groups, each offset by 63.  The pair u < v
# (labels from 1) is bit (v - 1)(v - 2)/2 + u - 1.
GRAPH6_MAX_VERTICES = 258047  # the largest n the "~" + 3-byte header carries
_GRAPH6_CHARACTERS = bytes.maketrans(bytes(range(64)), bytes(range(63, 127)))  # value + 63


def _to_graph6(graph: ChordedCycleGraph) -> str:
    n = graph.n
    if n > GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 output supports at most {GRAPH6_MAX_VERTICES} vertices")
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in graph.cycle_edges() + list(graph.chords):
        u, v = min(u, v), max(u, v)
        index = (v - 1) * (v - 2) // 2 + u - 1
        groups[index // 6] |= 32 >> index % 6
    header = bytes([n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63])
    return (header + groups).translate(_GRAPH6_CHARACTERS).decode("ascii")


def _from_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    data = [ord(ch) - 63 for ch in line]
    if not all(0 <= d < 64 for d in data):
        raise ValueError("invalid graph6 characters")
    if data[0] < 63:
        n, data = data[0], data[1:]
    elif len(data) < 4:
        raise ValueError("truncated graph6 header")
    elif data[1] == 63:
        raise ValueError(f"graph6 input beyond {GRAPH6_MAX_VERTICES} vertices is unsupported")
    else:
        n, data = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    need = n * (n - 1) // 2
    if len(data) != (need + 5) // 6:
        raise ValueError("graph6 bit vector has the wrong length")
    edges = []
    for position, value in enumerate(data):
        while value:  # set bits only, highest (first in the vector) first
            top = value.bit_length() - 1
            value ^= 1 << top
            index = 6 * position + 5 - top
            if index >= need:
                raise ValueError("graph6 padding bits must be zero")
            column = (1 + math.isqrt(8 * index + 1)) // 2  # v - 1
            edges.append((index - column * (column - 1) // 2 + 1, column + 1))
    return n, edges
