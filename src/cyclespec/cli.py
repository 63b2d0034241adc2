"""Command line interface.

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 invalid arguments or input,
3 budget exhaustion, 4 internal inconsistency (a re-check that failed, which
means a bug here).  Identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys

from . import cycleset, graphs, oracle, search, singer

SCHEMA = "cyclespec/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _integer(text: str) -> int:
    """An optional minus sign and ASCII digits.  int() alone also takes other
    scripts' digits, underscores, surrounding whitespace and a plus sign."""
    digits = text.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclespec",
        description="Hamiltonian graphs whose cycle lengths are pairwise "
                    "distinct, constructed from perfect difference sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positional, text, formats, budget) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument(positional, type=str if positional == "file" else _integer)
        if budget is not None:
            metavar, default = budget
            p.add_argument("--budget", type=_integer, metavar=metavar, default=default)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", metavar="FILE",
                       help="write data here instead of stdout")
    return parser


def _cell(key: str, value) -> str:
    """One TSV cell: sequences space-separated, chords as u-v, empty as -."""
    if key == "verified":
        return "pass" if value else "fail"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join("-".join(map(str, item)) if isinstance(item, (list, tuple))
                        else str(item) for item in value) or "-"
    return str(value)


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for the values a record holds.

    Those are dicts with identifier keys, lists and tuples, bools, ints,
    finite floats and strings that need no escape; ``json`` itself is not
    imported, as its import costs more than most commands' work.  A plain int
    in a list is written inline, since spectra hold hundreds of them.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return f'"{value}"'
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f'"{key}": {_json(item, inner)}' for key, item in value.items()]
    elif not value:
        return "[]"
    else:
        brackets = "[]"
        items = [str(item) if type(item) is int else _json(item, inner) for item in value]
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")


def _render(command: str, fmt: str, record: dict | str) -> str:
    """The output text of one command: TSV when asked for, else JSON.

    A serialized graph passes through as is.  JSON is the record behind a
    schema and a command key, laid out by ``_json`` as ``json.dumps`` with
    ``indent=2`` would.  TSV is a schema row, then one key/value row per
    field, or for ``table`` a header row and one per q.
    """
    if isinstance(record, str):
        return record
    if fmt != "tsv":
        return _json({"schema": SCHEMA, "command": command, **record}) + "\n"
    if command == "table":
        rows = record["rows"]
        lines = [list(rows[0])] + [map(_cell, row, row.values()) for row in rows]
    else:
        lines = [[key, _cell(key, value)] for key, value in record.items()]
    return "".join("\t".join(line) + "\n"
                   for line in [["schema", SCHEMA]] + lines)


def _construction(q: int):
    """Shared pipeline: difference set -> anchors -> graph."""
    diffset = singer.singer_difference_set(q)
    trace = cycleset.derive_cycle_set_trace(diffset)
    graph = graphs.build_graph(diffset.n, trace.anchors)
    return diffset, trace, graph


def _cmd_singer(args: argparse.Namespace) -> tuple[int, dict]:
    diffset = singer.singer_difference_set(args.q)
    ok = singer.verify_perfect_difference_set(diffset)
    return (EXIT_OK if ok else EXIT_VERIFICATION), {
        "q": args.q,
        "n": diffset.n,
        "size": diffset.k,
        "elements": diffset.elements,
        "verified": ok,
    }


def _cmd_derive(args: argparse.Namespace) -> tuple[int, dict]:
    diffset, trace, _ = _construction(args.q)
    return EXIT_OK, {
        "q": args.q,
        "n": diffset.n,
        "difference_set": diffset.elements,
        "pair": trace.pair,
        "shifted": trace.shifted,
        "cycle_set": trace.anchors,
        "size": len(trace.anchors),
    }


def _cmd_build(args: argparse.Namespace) -> tuple[int, str]:
    _, _, graph = _construction(args.q)
    return EXIT_OK, graphs.export_graph(graph, args.format)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    text = pathlib.Path(args.file).read_text()
    graph = graphs.import_graph(text, args.format)
    report = oracle.verification_report(graph, budget=args.budget)
    return (EXIT_VERIFICATION if report["repeated"] else EXIT_OK), report


def _cmd_spectrum(args: argparse.Namespace) -> tuple[int, dict]:
    diffset, trace, graph = _construction(args.q)
    predicted = graphs.predicted_spectrum(diffset.n, trace.anchors)
    enumerated = oracle.enumerate_cycles(graph, budget=args.budget)
    equal = predicted == enumerated
    return (EXIT_OK if equal else EXIT_VERIFICATION), {
        "q": args.q,
        "n": diffset.n,
        "predicted": predicted,
        "enumerated": enumerated,
        "equal": equal,
    }


def _cmd_exact_g(args: argparse.Namespace) -> tuple[int, dict]:
    result = search.exact_g(args.n, budget=args.budget)
    return (EXIT_OK if result.exhaustive else EXIT_BUDGET), {
        "n": result.n,
        "g": result.g_value,
        "witness_chords": result.witness.chords,
        "nodes_explored": result.nodes_explored,
        "exhaustive": result.exhaustive,
    }


def _cmd_table(args: argparse.Namespace) -> tuple[int, dict]:
    if args.qmax < 2:
        raise ValueError("qmax must be at least 2")
    rows = []
    for q in filter(singer.prime_power, range(2, args.qmax + 1)):
        diffset, trace, graph = _construction(q)
        predicted = graphs.predicted_spectrum(diffset.n, trace.anchors)
        enumerated = oracle.enumerate_cycles(graph)
        # equal to the census, it repeats no length (derive refuses a census
        # that does) and holds the Hamilton cycle's length n
        ok = predicted == enumerated
        rows.append({
            "q": q,
            "n": diffset.n,
            "size": len(trace.anchors),
            "edges": graph.edge_count,
            "construction": q * q + 2 * q,
            "bound": oracle.singer_lower_bound_exact(diffset.n),  # q^2 + 2q
            "verified": ok,
        })
    all_ok = all(row["verified"] for row in rows)
    return (EXIT_OK if all_ok else EXIT_VERIFICATION), {"rows": rows}


# One row per subcommand, in --help order: handler, positional argument,
# help text, --format choices (the first is the default), --budget metavar and
# default (None: no --budget).
_COMMANDS = {
    "singer": (_cmd_singer, "q", "perfect difference set for prime power q",
               ("tsv", "json"), None),
    "derive": (_cmd_derive, "q", "distinct cycle set derived from the "
               "difference set for q", ("tsv", "json"), None),
    "build": (_cmd_build, "q", "serialize the chorded cycle graph for q",
              graphs.FORMATS, None),
    "verify": (_cmd_verify, "file", "enumerate cycles of a serialized graph "
               "and report spectrum and bounds as JSON", graphs.FORMATS,
               ("CYCLES", oracle.DEFAULT_CYCLE_BUDGET)),
    "spectrum": (_cmd_spectrum, "q", "predicted vs enumerated spectrum for q",
                 ("tsv", "json"), ("CYCLES", oracle.DEFAULT_CYCLE_BUDGET)),
    "exact-g": (_cmd_exact_g, "n", "exhaustive maximum-edge search for n",
                ("tsv", "json"), ("NODES", search.DEFAULT_NODE_BUDGET)),
    "table": (_cmd_table, "qmax", "one verified construction row per prime "
              "power q <= qmax", ("tsv", "json"), None),
}


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        code, record = _COMMANDS[args.command][0](args)
        text = _render(args.command, args.format, record)
        if args.output is None:
            sys.stdout.write(text)
        else:
            pathlib.Path(args.output).write_text(text)
    except oracle.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except oracle.InternalInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        # parse, range and budget errors; unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
