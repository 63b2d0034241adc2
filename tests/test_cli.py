"""CLI behavior: schemas, exit codes, determinism, file output."""

import json
import pathlib
import re

import pytest

from cyclespec import cli, graphs


@pytest.fixture(autouse=True)
def _clean_budget_env(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSinger:
    def test_tsv_output(self, capsys):
        code, out, err = run_cli(capsys, "singer", "2")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "schema\tcyclespec/1",
            "q\t2",
            "n\t7",
            "size\t3",
            "elements\t0 1 3",
            "verified\tpass",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "singer", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[0] == "schema"
        assert payload["schema"] == "cyclespec/1"
        assert payload["elements"] == [0, 1, 3, 9]
        assert payload["verified"] is True

    def test_rejects_non_prime_power(self, capsys):
        code, out, err = run_cli(capsys, "singer", "6")
        assert code == 2 and out == ""
        assert "not a prime power" in err
        assert "5 and 7" in err

    def test_rejects_too_small(self, capsys):
        code, _, err = run_cli(capsys, "singer", "1")
        assert code == 2
        assert "nearest: 2" in err


class TestDerive:
    def test_thirteen(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "3")
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["cycle_set"] == "8 12"
        assert rows["pair"] == "3 1"
        assert rows["shifted"] == "2 8 12 13"


class TestBuild:
    def test_edge_list_default(self, capsys):
        code, out, _ = run_cli(capsys, "build", "2")
        assert code == 0
        assert out == "1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 1\n1 6\n"

    @pytest.mark.parametrize("fmt", graphs.FORMATS)
    def test_round_trips(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "build", "3", "--format", fmt)
        assert code == 0
        graph = graphs.import_graph(out, fmt)
        assert graph.n == 13
        assert graph.chords == ((1, 8), (1, 12))

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_help_lists_graph_formats_in_order(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert "--format {edgelist,dot,graph6}" in capsys.readouterr().out


class TestVerify:
    def test_clean_graph(self, capsys, tmp_path):
        target = tmp_path / "graph.txt"
        assert run_cli(capsys, "build", "3", "--output", str(target))[0] == 0
        code, out, _ = run_cli(capsys, "verify", str(target))
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["spectrum"] == [3, 6, 7, 8, 12, 13]
        assert payload["repeated"] is False

    def test_repeated_length_fails(self, capsys, tmp_path):
        target = tmp_path / "bad.txt"
        graph = graphs.ChordedCycleGraph(4, ((1, 3),))
        target.write_text(graphs.export_graph(graph, "edgelist"))
        code, out, _ = run_cli(capsys, "verify", str(target))
        assert code == 1
        assert json.loads(out)["repeated"] is True

    def test_unreadable_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", str(tmp_path / "missing.txt"))
        assert code == 2 and out == "" and "error:" in err

    def test_unparsable_file(self, capsys, tmp_path):
        target = tmp_path / "junk.txt"
        target.write_text("pebbles\n")
        code, _, err = run_cli(capsys, "verify", str(target))
        assert code == 2 and "error:" in err

    def test_graph6_input(self, capsys, tmp_path):
        target = tmp_path / "graph.g6"
        assert run_cli(capsys, "build", "2", "--format", "graph6",
                       "--output", str(target))[0] == 0
        code, out, _ = run_cli(capsys, "verify", str(target),
                               "--format", "graph6")
        assert code == 0
        assert json.loads(out)["spectrum"] == [3, 6, 7]


class TestSpectrum:
    def test_matches(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "4")
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["equal"] == "true"
        assert rows["predicted"] == rows["enumerated"]

    def test_budget_exhaustion_flag(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "2", "--budget", "2")
        assert code == 3 and out == ""
        assert "budget" in err

    def test_budget_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, "2")
        assert run_cli(capsys, "spectrum", "2")[0] == 3

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, "2")
        assert run_cli(capsys, "spectrum", "2", "--budget", "100")[0] == 0

    def test_invalid_environment_budget(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, "pebbles")
        code, _, err = run_cli(capsys, "spectrum", "2")
        assert code == 2 and cli.BUDGET_ENV in err

    def test_nonpositive_budget(self, capsys):
        assert run_cli(capsys, "spectrum", "2", "--budget", "0")[0] == 2


class TestExactG:
    def test_seven(self, capsys):
        code, out, _ = run_cli(capsys, "exact-g", "7")
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["g"] == "8"
        assert rows["exhaustive"] == "true"

    def test_truncated_run_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, "exact-g", "12", "--budget", "5")
        assert code == 3
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["exhaustive"] == "false"

    def test_out_of_range(self, capsys):
        assert run_cli(capsys, "exact-g", "2")[0] == 2
        assert run_cli(capsys, "exact-g", "63")[0] == 2

    def test_json_witness(self, capsys):
        code, out, _ = run_cli(capsys, "exact-g", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["g"] == 10
        assert payload["witness_chords"] == [[1, 3], [1, 6]]


class TestTable:
    def test_frozen_small_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "schema\tcyclespec/1"
        assert lines[1] == "q\tn\tsize\tedges\tconstruction\tbound\tverified"
        assert lines[2] == "2\t7\t1\t8\t8\t8\tpass"
        assert lines[3] == "3\t13\t2\t15\t15\t15\tpass"
        assert len(lines) == 4

    def test_skips_non_prime_powers(self, capsys):
        code, out, _ = run_cli(capsys, "table", "9", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [row["q"] for row in payload["rows"]] == [2, 3, 4, 5, 7, 8, 9]
        assert all(row["verified"] for row in payload["rows"])
        assert all(row["edges"] == row["construction"] == row["bound"]
                   for row in payload["rows"])

    def test_rejects_tiny_qmax(self, capsys):
        assert run_cli(capsys, "table", "1")[0] == 2


class TestIntegerArguments:
    """q, n, qmax and budgets are an optional minus sign and ASCII digits."""

    @pytest.mark.parametrize("argv", [
        ["singer", "\u0663"],  # ARABIC-INDIC DIGIT THREE
        ["exact-g", "1_2"],
        ["spectrum", "3", "--budget", "\uff15"],  # FULLWIDTH DIGIT FIVE
        ["table", "+3"],
        ["singer", "1" * 5000],  # more digits than int() converts
    ], ids=["arabic-indic-q", "underscore-n", "fullwidth-budget", "plus-qmax",
            "too-many-digits"])
    def test_refused_as_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f": invalid int value: {argv[-1]!r}\n")

    def test_environment_budget_refused(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, " \u0663 ")
        code, out, err = run_cli(capsys, "spectrum", "2")
        assert (code, out) == (2, "")
        assert err == f"error: {cli.BUDGET_ENV} must be an integer, got ' \u0663 '\n"


class TestHarness:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = run_cli(capsys, "table", "5")
        second = run_cli(capsys, "table", "5")
        assert first == second
        third = run_cli(capsys, "derive", "9", "--format", "json")
        fourth = run_cli(capsys, "derive", "9", "--format", "json")
        assert third == fourth

    def test_output_file_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "out.tsv"
        code, out, err = run_cli(capsys, "singer", "2", "--output", str(target))
        assert code == 0 and out == "" and err == ""
        assert "0 1 3" in target.read_text()

    @pytest.mark.parametrize("target", ["", "missing/out.tsv"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_output_exits_two(self, capsys, tmp_path, target):
        code, out, err = run_cli(capsys, "singer", "3",
                                 "--output", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["no-such-command"])
        assert info.value.code == 2

    def test_parser_reused_after_usage_error_and_help(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        for argv, code in ((["singer"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == code
        capsys.readouterr()
        golden = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json").read_text())
        line = "singer 3 --format tsv"
        code, out, err = run_cli(capsys, *line.split())
        assert {"exit": code, "stdout": out, "stderr": err} == golden[line]

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
        assert "0 1 3" in proc.stdout
