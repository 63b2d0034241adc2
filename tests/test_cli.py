"""CLI behaviour the golden grid cannot pin.

``golden/cli.json`` owns the stdout, stderr and exit code of every command
line in ``test_cli_golden.py``, which runs them without ``--output``.  The
rest is tested here: the default budget each command parses, ``--output``
files, paths that cannot be read or written, an integer too long for a grid
key, a failed internal re-check, parser reuse, the README's command list,
the module entry point, and the JSON writer on values no command prints.
"""

import json
import math
import pathlib
import random
import re
from collections import Counter

import pytest

from cyclespec import cli, oracle, search

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json")
                    .read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_unreadable_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", str(tmp_path / "missing.txt"))
        assert code == 2 and out == "" and "error:" in err


class TestTable:
    def test_enumeration_missing_the_hamilton_cycle_fails(self, capsys, monkeypatch):
        # the census always holds n, so the equality alone catches its loss
        original = cli.oracle.enumerate_cycles
        monkeypatch.setattr(cli.oracle, "enumerate_cycles", lambda graph: original(graph)[:-1])
        code, out, _ = run_cli(capsys, "table", "3")
        rows = [line.split("\t") for line in out.splitlines()[2:]]
        assert code == 1 and [(row[0], row[-1]) for row in rows] == [("2", "fail"), ("3", "fail")]


def test_json_writer_matches_json_dumps():
    """Nested dicts, lists and tuples of the records' scalar types, laid out
    as ``json.dumps(value, indent=2)`` lays them out."""
    rng = random.Random(36)
    seen = Counter()

    def draw(depth):
        kind = rng.choice(("dict", "list", "tuple") * (depth < 3)
                          + ("bool", "int", "float", "str"))
        seen[kind] += 1
        if kind == "dict":
            keys = ("n", "chords", "spectrum", "bounds", "q")
            return {rng.choice(keys) + str(i): draw(depth + 1) for i in range(rng.randint(1, 4))}
        if kind in ("list", "tuple"):
            items = [draw(depth + 1) for _ in range(rng.randint(0, 5))]
            seen["empty"] += not items
            seen["int item"] += any(type(item) is int for item in items)
            return items if kind == "list" else tuple(items)
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "int":
            return rng.randint(-10 ** 6, 10 ** 6)
        if kind == "float":
            return math.sqrt(rng.randint(0, 10 ** 4))
        return rng.choice((cli.SCHEMA, *cli._COMMANDS))

    for _ in range(300):
        value = draw(0)
        assert cli._json(value) == json.dumps(value, indent=2), value
    assert len(seen) == 9 and min(seen.values()) >= 40, seen


class TestIntegerArguments:
    """q, n, qmax and budgets are an optional minus sign and ASCII digits."""

    def test_too_many_digits_refused_as_usage_error(self, capsys):
        digits = "1" * 5000  # more digits than int() converts
        with pytest.raises(SystemExit) as info:
            cli.main(["singer", digits])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f": invalid int value: {digits!r}\n")


class TestInternalInconsistency:
    def test_failed_recheck_exits_four(self, capsys, monkeypatch):
        # no real input reaches a failed re-check, so one is faked: every
        # enumeration repeats the Hamilton cycle, which exact_g's witness
        # re-check refuses
        original = oracle.enumerate_cycles
        monkeypatch.setattr(oracle, "enumerate_cycles",
                            lambda graph: original(graph) + (graph.n,))
        code, out, err = run_cli(capsys, "exact-g", "8")
        assert (code, out) == (4, "")
        assert err == ("error: internal inconsistency: "
                       "witness re-check found a repeated length\n")


class TestBudgetDefaults:
    """No golden row tells the two defaults apart: every exact-g row there
    needs at most 235 nodes."""

    @pytest.mark.parametrize("argv, budget", [
        ("verify g.txt", oracle.DEFAULT_CYCLE_BUDGET),
        ("spectrum 3", oracle.DEFAULT_CYCLE_BUDGET),
        ("exact-g 5", search.DEFAULT_NODE_BUDGET),
    ], ids=["verify", "spectrum", "exact-g"])
    def test_parser_carries_the_default(self, argv, budget):
        assert cli.build_parser().parse_args(argv.split()).budget == budget

    @pytest.mark.parametrize("command", ["singer", "derive", "build", "table"])
    def test_no_budget_elsewhere(self, command):
        assert not hasattr(cli.build_parser().parse_args([command, "3"]), "budget")


class TestHarness:
    @pytest.mark.parametrize("argv, line", [
        ("singer 2", "singer 2 --format tsv"),     # tsv is the default
        ("build 3", "build 3 --format edgelist"),  # edgelist is the default
    ], ids=["singer", "build"])
    def test_output_file_keeps_stdout_quiet(self, capsys, tmp_path, argv, line):
        target = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv.split(), "--output", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == GOLDEN[line]["stdout"]

    @pytest.mark.parametrize("target", ["", "missing/out.tsv"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_output_exits_two(self, capsys, tmp_path, target):
        code, out, err = run_cli(capsys, "singer", "3",
                                 "--output", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_parser_reused_after_usage_error_and_help(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        for argv, code in ((["singer"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == code
        capsys.readouterr()
        line = "singer 3 --format tsv"
        code, out, err = run_cli(capsys, *line.split())
        assert {"exit": code, "stdout": out, "stderr": err} == GOLDEN[line]

    def test_readme_lists_every_command(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Command line"):readme.index("## Library")]
        (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
        assert set(cli._COMMANDS) <= set(re.findall(r"^cyclespec (\S+)", block, re.M))

    def test_console_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run([sys.executable, "-m", "cyclespec.cli", "singer", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN["singer 2 --format tsv"]["stdout"]
