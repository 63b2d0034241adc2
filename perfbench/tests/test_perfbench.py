"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

sys.path.insert(0, str(run.SRC))
from cyclespec import cli  # noqa: E402

REFERENCE = workloads.load_reference()


def span(name, start, end, parent=None, op=0):
    return Span(name, start, end, parent, op, None, 0)


# ------------------------------------------------------------ self times

def test_self_time_subtracts_children_recursively():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 5.0, 6.0, 0),
             span("a1", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_or_overhanging_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 2.0, 6.0, 0), span("b", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_accounting_gap_is_wall_minus_summed_self_times():
    spans = [span("root", 0.0, 1.0, op=7), span("a", 0.25, 0.5, 0, op=7)]
    assert tracing.per_op_accounting(spans, {7: 1.25}) == pytest.approx({7: 0.25})


def test_layer_metrics_are_per_op_and_split_by_tag():
    spans = [span("cli.main", 0.0, 4.0),
             Span("singer.singer_difference_set", 1.0, 3.0, 0, 0, "tower", 4095),
             Span("finite_field.find_primitive", 1.5, 2.0, 1, 0, "tower", 0)]
    # two traced ops, the second one empty
    values = tracing.layer_metrics(spans, ops=2, overhead=0.01)
    assert values["cli.main.self_s"] == pytest.approx(1.0)
    assert values["singer.singer_difference_set.self_s.tower"] == pytest.approx(0.75)
    assert values["singer.singer_difference_set.self_s.prime"] == 0
    assert values["finite_field.find_primitive.calls"] == 0.5
    assert values["singer.walk_products_per_s"] == pytest.approx(4095 / 1.5)
    assert set(values) == set(tracing.metric_specs())


# ------------------------------------------------------- tail percentile

def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail_percentile([float(i) for i in range(1, 1001)]) == (99, 990.0)
    assert run.tail_percentile([float(i) for i in range(1, 12)]) == (9, 1.0)


def test_tail_percentile_falls_back_to_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


# ---------------------------------------------------------- generators

def schedules(workload, seed, blocks=3):
    rng = random.Random(seed)
    return [workload.block(index, rng) for index in range(blocks)]


@pytest.fixture(scope="module")
def verify_workload(tmp_path_factory):
    return workloads.Verify(REFERENCE, tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("name", ["construct", "search", "verify"])
def test_same_seed_same_inputs(name, verify_workload):
    make = {"construct": lambda: workloads.Construct(REFERENCE),
            "search": workloads.Search, "verify": lambda: verify_workload}[name]
    first, again, other = schedules(make(), 5), schedules(make(), 5), schedules(make(), 6)
    assert first == again
    assert first != other
    # every block holds the same mix whatever the seed
    assert [sorted(map(repr, b)) for b in first] == [sorted(map(repr, b)) for b in other]


def test_verify_inputs_are_written_deterministically(tmp_path, verify_workload):
    again = workloads.Verify(REFERENCE, tmp_path)
    for mine, theirs in zip(verify_workload.ops, again.ops):
        assert Path(mine.path).read_text() == Path(theirs.path).read_text()


def test_construct_gives_each_q_three_commands_over_three_blocks():
    blocks = schedules(workloads.Construct(REFERENCE), 1, 3)
    ops = [op for block in blocks for op in block if op.command != "table"]
    assert all(len(block) == len(workloads.CONSTRUCT_Q) + 2 for block in blocks)
    for q in workloads.CONSTRUCT_Q:
        assert len({op.command for op in ops if op.size == q}) == 3
    assert {(op.command, op.fmt) for op in ops} == set(workloads.CONSTRUCT_VARIANTS)
    assert {("spectrum", 9), ("spectrum", 16), ("spectrum", 23)} <= \
        {(op.command, op.size) for op in ops}
    # the graph6 defect stays in the mix
    assert sum(op.long_graph6 for op in ops) == 3


def test_long_graph6_round_trip():
    n, chords = 73, workloads.singer_chords(REFERENCE["anchors"]["8"])
    text = workloads.write_graph(n, chords, "graph6")
    assert text[0] == "~"
    assert workloads.parse_graph(text, "graph6") == (n, workloads.edge_set(n, chords))


# ------------------------------------------------------------- checkers

def output(argv):
    _, code, out, _, raised = run.invoke(cli, argv)
    assert raised is None
    return code, out


CONSTRUCT_ARGVS = [[command, "3", "--format", fmt] for command, fmt in workloads.CONSTRUCT_VARIANTS]
CONSTRUCT_ARGVS += [["table", "13", "--format", fmt] for fmt in ("tsv", "json")]


@pytest.mark.parametrize("argv", CONSTRUCT_ARGVS, ids=" ".join)
def test_construct_checker_rejects_changed_bytes(argv):
    workload = workloads.Construct(REFERENCE)
    op = workloads.Op(argv[0], argv[3], int(argv[1]))
    code, out = output(argv)
    assert workload.check(op, code, out) is None
    assert workload.check(op, 2, out) is not None
    for bad in {out[:-2], out.replace("3", "4", 1), out + "\n"} - {out}:
        assert workload.check(op, code, bad) is not None


# Wrong values the content checks must catch even where no digest is recorded.
WRONG_VALUES = [
    ("singer", "elements", [0, 1, 3, 8]),
    ("singer", "verified", False),
    ("singer", "q", 4),
    ("derive", "difference_set", [0, 1, 3, 8]),
    ("derive", "cycle_set", [8, 11]),
    ("spectrum", "enumerated", [3, 6, 7, 8, 12, 12]),
    ("spectrum", "equal", False),
]


@pytest.mark.parametrize("command,key,value", WRONG_VALUES)
def test_construct_content_check_rejects_wrong_values(command, key, value):
    workload = workloads.Construct(REFERENCE)
    op = workloads.Op(command, "json", 3)
    _, out = output(op.argv)
    assert workload.content_error(op, out) is None
    assert workload.content_error(op, json.dumps(json.loads(out) | {key: value})) is not None


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_table_content_check_rejects_a_failed_row(fmt):
    workload = workloads.Construct(REFERENCE)
    op = workloads.Op("table", fmt, 13)
    _, out = output(op.argv)
    assert workload.content_error(op, out) is None
    bad = out.replace("pass", "fail", 1) if fmt == "tsv" else out.replace("true", "false", 1)
    assert workload.content_error(op, bad) is not None


def test_construct_checker_accepts_long_graph6_and_rejects_a_wrong_graph():
    workload = workloads.Construct(REFERENCE)
    op = workloads.Op("build", "graph6", 8)
    assert op.long_graph6
    chords = workloads.singer_chords(REFERENCE["anchors"]["8"])
    assert workload.check(op, 0, workloads.write_graph(73, chords, "graph6")) is None
    assert workload.check(op, 0, workloads.write_graph(73, chords[1:], "graph6")) is not None


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_search_checker_rejects_corrupted_output(fmt):
    workload = workloads.Search()
    op = workloads.Op("exact-g", fmt, 12)
    code, out = output(op.argv)
    assert workload.check(op, code, out) is None
    assert workload.check(op, 3, out) is not None
    assert workload.check(op, code, out.replace("14", "15", 1)) is not None
    witness = "1-3 1-5" if fmt == "tsv" else "      5\n"
    assert workload.check(op, code, out.replace(witness, witness.replace("5", "6"))) is not None
    assert workload.check(op, code, out.replace("true", "false")) is not None


@pytest.mark.parametrize("graph", [0, -13], ids=["random", "singer-q2"])
@pytest.mark.parametrize("fmt", workloads.GRAPH_FORMATS)
def test_verify_checker_rejects_corrupted_output(verify_workload, graph, fmt):
    pytest.importorskip("networkx")
    workload = verify_workload
    op = next(op for op in workload.ops
              if op.graph == graph % len(workload.graphs) and op.fmt == fmt)
    code, out = output(op.argv)
    assert workload.check(op, code, out) is None
    assert workload.check(op, 1 - code, out) is not None
    report = json.loads(out)
    for key, value in [("spectrum", report["spectrum"][:-1]),
                       ("spectrum", report["spectrum"][:-1] + [report["spectrum"][-1] + 1]),
                       ("repeated", not report["repeated"]),
                       ("chords", report["chords"][1:])]:
        assert workload.check(op, code, json.dumps(report | {key: value})) is not None


# ------------------------------------------------------------- verdicts

def refused(op, code=2, raised=None):
    return run.Record(op, 0.1, code, workloads.digest(""), "error: refused\n", raised, False)


def test_only_the_graph6_defect_is_a_tolerated_failure():
    records = [refused(workloads.Op("build", "graph6", 8)),
               refused(workloads.Op("build", "graph6", 8), code=3),
               refused(workloads.Op("singer", "tsv", 3)),
               refused(workloads.Op("exact-g", "json", 12), code=3),
               refused(workloads.Op("build", "graph6", 8), code=None, raised="ValueError: x")]
    failed = run.judge(workloads.Search(), records, {workloads.digest(""): ""})
    assert [f["wrong"] for f in failed] == [False, True, True, True, True]
    assert failed[0]["reason"] == "exit 2: error: refused"


def test_a_refused_invocation_makes_the_run_incorrect(monkeypatch, tmp_path):
    def refuse(argv):
        print("error: not today", file=sys.stderr)
        return 2
    monkeypatch.setattr(cli, "main", refuse)
    monkeypatch.setattr(run, "measure_setup", lambda repeats: [0.03] * repeats)
    result, details, _ = run.run("search", 1, 1.0, False, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == details["samples"] > 0
    assert details["incorrect"] == result["failed"]
    assert details["setup_samples"] == run.SETUP_REPEATS


def test_benchmark_json_lists_exactly_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.metric_specs()
