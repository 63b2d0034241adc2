"""Rewrite reference.json from the program as it is now.

    python3 perfbench/record.py

Records the sha256 of stdout for every construct invocation (keyed by
command, q and format), the chord anchors of each Singer graph, and the
fixed set of random chorded cycles the verify workload checks.  Run it only
when the bytes the CLI prints are meant to change; a change that keeps the
output contract leaves this file alone.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import networkx as nx

from run import SRC, invoke
from workloads import (CONSTRUCT_Q, CONSTRUCT_VARIANTS, REFERENCE, TABLE_QMAX,
                       cycle_edges, digest, digest_key, singer_chords, write_graph)

# The random graphs are drawn once with this seed: n in 20..60 step 5 and
# 4..12 chords, redrawn while the graph has more than CYCLE_CAP cycles.
GRAPH_SEED = 20170522
CYCLE_CAP = 2500


def random_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(GRAPH_SEED)
    drawn = []
    for n, k in itertools.product(range(20, 61, 5), range(4, 13)):
        candidates = [(u, v) for u in range(1, n + 1) for v in range(u + 2, n + 1)
                      if (u, v) != (1, n)]
        while True:
            chords = sorted(rng.sample(candidates, k))
            cycles = nx.simple_cycles(nx.Graph(cycle_edges(n) + chords))
            if sum(1 for _ in itertools.islice(cycles, CYCLE_CAP + 1)) <= CYCLE_CAP:
                break
        drawn.append((n, chords))
    return drawn


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cyclespec import cli

    digests, anchors = {}, {}
    # Builds go last: their output is checked against the anchors derive prints.
    variants = sorted(CONSTRUCT_VARIANTS, key=lambda variant: variant[0] == "build")
    argvs = [[command, str(q), "--format", fmt] for q in CONSTRUCT_Q for command, fmt in variants]
    argvs += [["table", str(TABLE_QMAX), "--format", fmt] for fmt in ("tsv", "json")]
    for argv in argvs:
        _, code, out, err, raised = invoke(cli, argv)
        print(" ".join(argv), code, err.strip(), file=sys.stderr)
        if raised is not None:
            raise RuntimeError(raised)
        if code == 0:
            digests[digest_key(argv[0], int(argv[1]), argv[3])] = digest(out)
        if argv[0] == "derive" and argv[3] == "json":
            anchors[argv[1]] = json.loads(out)["cycle_set"]
        if argv[0] == "build" and code == 0:
            q = int(argv[1])
            if out != write_graph(q * q + q + 1, singer_chords(anchors[argv[1]]), argv[3]):
                raise RuntimeError(f"{' '.join(argv)}: layout differs from write_graph")
    reference = {"digests": digests, "anchors": anchors, "random_graphs": random_graphs()}
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
