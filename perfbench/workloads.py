"""The three workloads: fixed input sets, a seeded invocation order, and the
checks each output must pass.

Every workload runs in blocks.  A block's inputs depend on its index
only, so a run of so many blocks always measures the same work whatever
the seed; the seed only shuffles the order inside each block.  Inputs are fixed on
purpose: their costs span three orders of magnitude, and a mix redrawn per
seed would move the end-to-end numbers more than the bounds allow.  The
mixes are also shaped so that the median and the tail percentile fall
inside a group of invocations of like cost, not between two groups whose
costs differ by a third or more, where noise would flip them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

CONSTRUCT_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)
# Every (command, format) pair the construction commands accept, in three
# groups of three, each with one build format and two other commands.  A q
# runs the pairs of one group only (see Construct), so the groups are laid
# out to give each q three commands and the tower q 9 and 16 a spectrum.
CONSTRUCT_VARIANTS = (
    ("spectrum", "tsv"), ("singer", "json"), ("build", "edgelist"),
    ("spectrum", "json"), ("derive", "tsv"), ("build", "dot"),
    ("singer", "tsv"), ("derive", "json"), ("build", "graph6"),
)
TABLE_QMAX = 13
SEARCH_N = (12, 13, 14, 15, 16, 17)
GRAPH_FORMATS = ("edgelist", "dot", "graph6")
# The largest n the short graph6 header can carry.
GRAPH6_SHORT_MAX = 62

# g(n) and the lexicographically least witness, from the README table.
README_G = {
    12: (14, ((1, 3), (1, 5))),
    13: (16, ((1, 3), (1, 6), (1, 11))),
    14: (17, ((1, 3), (1, 5), (1, 9))),
    15: (18, ((1, 3), (1, 5), (1, 11))),
    16: (19, ((1, 3), (1, 5), (1, 10))),
    17: (20, ((1, 3), (1, 5), (1, 9))),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checker needs to know about it."""

    command: str
    fmt: str
    size: int        # q (construction), qmax (table), n (exact-g), graph n (verify)
    path: str = ""   # verify: the input file
    graph: int = -1  # verify: index into the workload's graph list

    @property
    def argv(self) -> list[str]:
        target = self.path if self.command == "verify" else str(self.size)
        return [self.command, target, "--format", self.fmt]

    @property
    def vertices(self) -> int:
        if self.command in ("verify", "exact-g"):
            return self.size
        return self.size * self.size + self.size + 1

    @property
    def key(self) -> str:
        """The invocation without its temporary file path."""
        target = f"g{self.graph}" if self.command == "verify" else self.size
        return f"{self.command} {target} {self.fmt}"

    @property
    def long_graph6(self) -> bool:
        """graph6 on more than 62 vertices needs the long header, which the
        CLI does not implement yet; these ops are expected to fail."""
        return (self.fmt == "graph6" and self.command != "table"
                and self.vertices > GRAPH6_SHORT_MAX)

    @property
    def label(self) -> str:
        return f"{self.command} {self.fmt}" + (" n>=63" if self.long_graph6 else "")


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_key(command: str, size: int, fmt: str) -> str:
    return f"{command} {size} {fmt}"


# ---------------------------------------------------------------- formats

def singer_chords(anchors) -> tuple[tuple[int, int], ...]:
    return tuple((1, a) for a in anchors)


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)] + [(n, 1)]


def edge_set(n: int, chords) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in cycle_edges(n) + list(chords)}


def write_graph(n: int, chords, fmt: str) -> str:
    """The layout ``cyclespec build`` writes, plus the long graph6 header."""
    edges = cycle_edges(n) + sorted(chords)
    if fmt == "edgelist":
        return "".join(f"{u} {v}\n" for u, v in edges)
    if fmt == "dot":
        return "graph {\n" + "".join(f"  {u} -- {v};\n" for u, v in edges) + "}\n"
    if fmt == "graph6":
        return to_graph6(n, edges) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def to_graph6(n: int, edges) -> str:
    adjacent = {(min(u, v) - 1, max(u, v) - 1) for u, v in edges}
    bits = [1 if (row, column) in adjacent else 0
            for column in range(1, n) for row in range(column)]
    bits += [0] * (-len(bits) % 6)
    if n <= GRAPH6_SHORT_MAX:
        header = [n]
    else:
        header = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    groups = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(value + 63) for value in header + groups)


def from_graph6(line: str) -> tuple[int, set[tuple[int, int]]]:
    data = [ord(ch) - 63 for ch in line.strip()]
    if not data or not all(0 <= d < 64 for d in data):
        raise ValueError("invalid graph6 characters")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n, data = data[0], data[1:]
    need = n * (n - 1) // 2
    if len(data) != (need + 5) // 6:
        raise ValueError("graph6 bit vector has the wrong length")
    bits = [(d >> shift) & 1 for d in data for shift in range(5, -1, -1)]
    pairs = [(row + 1, column + 1) for column in range(1, n) for row in range(column)]
    return n, {pair for pair, bit in zip(pairs, bits) if bit}


def parse_graph(text: str, fmt: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, edges) of serialized graph text, n being the largest label."""
    if fmt == "graph6":
        return from_graph6(text)
    edges = set()
    for line in text.splitlines():
        line = line.strip()
        if fmt == "dot":
            if line in ("graph {", "}"):
                continue
            line = line.rstrip(";").replace("--", " ")
        u, v = map(int, line.split())
        edges.add((min(u, v), max(u, v)))
    return max(v for _, v in edges), edges


def parse_record(text: str, fmt: str) -> dict:
    """The key/value record a data command prints, TSV or JSON."""
    if fmt == "json":
        return json.loads(text)
    rows = [line.split("\t") for line in text.splitlines()]
    return {row[0]: row[1] for row in rows if len(row) == 2}


def numbers(value) -> list[int]:
    return list(value) if isinstance(value, list) else [int(x) for x in value.split()]


def truth(value) -> bool:
    return value is True or value in ("true", "pass")


def perfect(n: int, elements) -> bool:
    """Every nonzero residue mod n is an ordered difference exactly once."""
    differences = sorted((a - b) % n for a in elements for b in elements if a != b)
    return differences == list(range(1, n))


# -------------------------------------------------------------- workloads

class Construct:
    """singer/derive/build/spectrum for every q, plus table 13.

    The q at position p of CONSTRUCT_Q belongs to group p % 3 of
    CONSTRUCT_VARIANTS and runs member (p + block) % 3 of it, so every
    block holds one op per q, and any three blocks in a row give each q the
    three pairs of its group: 39 of the 117 (command, q, format) triples.
    All 117 in one run would take about a minute, longer than a run may.
    """

    name = "construct"
    block_seconds = 7.8  # on the reference host
    mix = ("per block: one op for each q in {2,3,4,5,7,8,9,11,13,16,17,19,23} "
           "and 'table 13' in tsv and json; q = 2,5,9,16,23 rotate through "
           "spectrum tsv, singer json, build edgelist; q = 3,7,11,17 through "
           "spectrum json, derive tsv, build dot; q = 4,8,13,19 through "
           "singer tsv, derive json, build graph6 (the run's exact multiset is "
           "under 'invocations')")

    def __init__(self, reference: dict):
        self.digests = reference["digests"]
        self.anchors = {int(q): tuple(a) for q, a in reference["anchors"].items()}

    def block(self, index: int, rng: random.Random) -> list[Op]:
        ops = []
        for position, q in enumerate(CONSTRUCT_Q):
            group = position % 3
            command, fmt = CONSTRUCT_VARIANTS[3 * group + (position + index) % 3]
            ops.append(Op(command, fmt, q))
        ops += [Op("table", fmt, TABLE_QMAX) for fmt in ("tsv", "json")]
        rng.shuffle(ops)
        return ops

    def check(self, op: Op, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        expected = self.digests.get(digest_key(op.command, op.size, op.fmt))
        if expected is None and not op.long_graph6:
            return "no recorded digest"
        if expected is not None and digest(out) != expected:
            return "stdout differs from the recorded bytes"
        return self.content_error(op, out)

    def content_error(self, op: Op, out: str) -> str | None:
        """What the output gets wrong, judged from its content alone."""
        try:
            if op.command == "build":
                n, edges = parse_graph(out, op.fmt)
                if (n, edges) != (op.vertices, edge_set(n, singer_chords(self.anchors[op.size]))):
                    return "graph differs from the cycle plus the recorded chords"
                return None
            if op.command == "table":
                return self._table_error(op, out)
            record = parse_record(out, op.fmt)
            if (int(record["q"]), int(record["n"])) != (op.size, op.vertices):
                return "wrong q or n"
            if op.command == "singer":
                if not perfect(op.vertices, numbers(record["elements"])):
                    return "difference set is not perfect"
                return None if truth(record["verified"]) else "not verified"
            if op.command == "derive":
                if not perfect(op.vertices, numbers(record["difference_set"])):
                    return "difference set is not perfect"
                if tuple(numbers(record["cycle_set"])) != self.anchors[op.size]:
                    return "cycle set differs from the recorded anchors"
                return None
            if numbers(record["predicted"]) != numbers(record["enumerated"]):
                return "predicted and enumerated spectra differ"
            return None if truth(record["equal"]) else "not equal"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output: {exc!r}"

    def _table_error(self, op: Op, out: str) -> str | None:
        if op.fmt == "json":
            rows = json.loads(out)["rows"]
        else:
            header, *body = [line.split("\t") for line in out.splitlines()[1:]]
            rows = [dict(zip(header, row)) for row in body]
        if [int(row["q"]) for row in rows] != [q for q in CONSTRUCT_Q if q <= op.size]:
            return "wrong set of q"
        for row in rows:
            q = int(row["q"])
            if not (int(row["edges"]) == int(row["construction"]) == int(row["bound"])
                    == q * q + 2 * q) or not truth(row["verified"]):
                return f"row q={q} does not verify"
        return None


class Search:
    """exact-g at the default budget."""

    name = "search"
    block_seconds = 12.0
    mix = ("per block: exact-g n for n in 12..17, each in tsv and json, "
           "and n=12 twice more")

    def block(self, index: int, rng: random.Random) -> list[Op]:
        # The extra n=12 pair puts the median inside the n=14 group.
        ops = [Op("exact-g", fmt, n) for n in (12,) + SEARCH_N for fmt in ("tsv", "json")]
        rng.shuffle(ops)
        return ops

    def check(self, op: Op, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        try:
            record = parse_record(out, op.fmt)
            if op.fmt == "json":
                chords = tuple(tuple(c) for c in record["witness_chords"])
            else:
                chords = tuple(tuple(map(int, c.split("-")))
                               for c in record["witness_chords"].split() if c != "-")
            found = (int(record["g"]), chords)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable output: {exc!r}"
        if found != README_G[op.size]:
            return f"g and witness {found} differ from the README table"
        return None if truth(record["exhaustive"]) else "not exhaustive"


class Verify:
    """verify on files written before timing: random chorded cycles
    (mostly repeated lengths, exit 1) and the Singer graphs of
    ``construct`` (repeat-free, exit 0), each in every format."""

    name = "verify"
    block_seconds = 7.5
    mix = ("per block: verify on every input file once; files are the 81 "
           "random chorded cycles of reference.json (n in 20..60 step 5 x "
           "4..12 chords, at most 2500 cycles) and the 13 Singer graphs of "
           "construct, each as edgelist, dot and graph6")

    def __init__(self, reference: dict, workdir: Path):
        anchors = [tuple(reference["anchors"][str(q)]) for q in CONSTRUCT_Q]
        self.graphs = [(n, tuple(map(tuple, chords))) for n, chords in reference["random_graphs"]]
        self.graphs += [(q * q + q + 1, singer_chords(a)) for q, a in zip(CONSTRUCT_Q, anchors)]
        self.ops = []
        for index, (n, chords) in enumerate(self.graphs):
            for fmt in GRAPH_FORMATS:
                path = workdir / f"g{index}.{fmt}"
                path.write_text(write_graph(n, chords, fmt))
                self.ops.append(Op("verify", fmt, n, str(path), index))
        self._spectra: dict[int, list[int]] = {}

    def block(self, index: int, rng: random.Random) -> list[Op]:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops

    def spectrum(self, graph: int) -> list[int]:
        """Sorted cycle lengths by networkx ``simple_cycles``, an oracle
        outside this package; imported only after the timed region."""
        if graph not in self._spectra:
            import networkx as nx
            n, chords = self.graphs[graph]
            g = nx.Graph(cycle_edges(n) + list(chords))
            self._spectra[graph] = sorted(len(c) for c in nx.simple_cycles(g))
        return self._spectra[graph]

    def check(self, op: Op, code: int, out: str) -> str | None:
        lengths = self.spectrum(op.graph)
        repeated = len(set(lengths)) < len(lengths)
        if code != (1 if repeated else 0):
            return f"exit {code}, expected {1 if repeated else 0}"
        try:
            report = json.loads(out)
            n, chords = self.graphs[op.graph]
            if report["n"] != n or sorted(map(tuple, report["chords"])) != sorted(chords):
                return "report describes another graph"
            if report["spectrum"] != lengths:
                return "spectrum differs from networkx"
            if report["repeated"] is not repeated:
                return "repeated flag differs from networkx"
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable output: {exc!r}"
        return None
