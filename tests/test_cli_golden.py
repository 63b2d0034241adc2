"""Frozen CLI behaviour: stdout, stderr and exit code over a fixed grid.

``golden/cli.json`` maps each command line below to what ``cli.main``
printed and returned for it.  ``PYTHONPATH=src python tests/test_cli_golden.py``
records the file again from the code in the working tree; do that only for
a deliberate change of output, never to make this test pass.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from cyclespec import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"

GRAPH_FORMATS = ("edgelist", "dot", "graph6")
# C4 plus the chord 1-3: two triangles, so verify exits 1
REPEATED = "1 2\n2 3\n3 4\n4 1\n1 3\n"
# malformed or hostile graph text that verify must refuse with exit 2
REFUSED = {
    "empty.edgelist": "",
    "one-label.edgelist": "1\n",
    "three-labels.edgelist": "1 2 3\n",
    "letters.edgelist": "a b\n",
    "zero-label.edgelist": "0 2\n",
    "zero-second-label.edgelist": "1 0\n",
    "one-vertex.edgelist": "1 1\n",
    "missing-cycle-edge.edgelist": "1 2\n2 3\n",
    "repeated-edge.edgelist": "1 2\n2 3\n3 1\n2 1\n",
    "two-repeated-edges.edgelist": "2 3\n1 2\n3 1\n2 3\n1 2\n",  # the least is named
    "self-loop.edgelist": "1 2\n2 3\n3 1\n2 2\n",
    "dot-header.edgelist": "graph {\n  1 -- 2;\n}\n",
    "huge-label.edgelist": "1 2\n2 100000\n",
    "superscript-digit.edgelist": "1 \u00b2\n",
    "arabic-indic-digit.edgelist": "1 2\n2 \u0663\n1 3\n",  # the digit 3
    "no-semicolon.dot": "graph {\n  1 -- 2\n}\n",
    "arrow.dot": "graph {\n  1 -> 2;\n}\n",
    "no-edges.dot": "graph {\n}\n",
    "zero-label.dot": "graph {\n  0 -- 1;\n}\n",
    "empty.graph6": "",
    "two-lines.graph6": "Bw\nBw\n",
    "truncated-bits.graph6": "B\n",
    "bad-padding.graph6": "B@\n",
    "truncated-header.graph6": "~?@\n",
    "beyond-header.graph6": "~~??????\n",
    "no-hamilton-cycle.graph6": "Bo\n",  # triangle with the edge 2-3 cleared
    "two-vertices.graph6": "A_\n",
    "bad-character.graph6": "B!\n",
}


def _command_lines() -> list[str]:
    lines = [f"{command} {q} --format {fmt}"
             for command in ("singer", "derive", "spectrum")
             for q in (2, 3, 4, 8, 9)
             for fmt in ("tsv", "json")]
    lines += [f"build {q} --format {fmt}"
              for q in (2, 3, 8) for fmt in GRAPH_FORMATS]
    lines += [f"exact-g {n} --format {fmt}"
              for n in (4, 8, 12, 13, 14, 15, 16, 17) for fmt in ("tsv", "json")]
    lines += [f"exact-g {n} --budget {budget} --format {fmt}"
              for n, budget in ((12, 5), (12, 50), (16, 5000), (17, 200), (17, 500), (17, 5000))
              for fmt in ("tsv", "json")]
    lines += [f"table 9 --format {fmt}" for fmt in ("tsv", "json")]
    lines += [f"verify build-3.{fmt} --format {fmt}" for fmt in GRAPH_FORMATS]
    lines += ["verify repeated.edgelist",
              "singer 6", "table 1", "spectrum 2 --budget 2", "exact-g 63"]
    lines += [f"verify {name} --format {name.rsplit('.', 1)[1]}" for name in REFUSED]
    # which refusal wins when q, n and the budget are all bad
    lines += ["derive 6", "build 1", "spectrum 0", "singer -5",
              "spectrum 6 --budget 0", "spectrum 3 --budget 0", "spectrum 3 --budget -1",
              "exact-g 100 --budget 0", "exact-g 2 --budget 5",
              "verify build-3.edgelist --format edgelist --budget 0"]
    # the parser's own output, at COLUMNS=80: help texts and usage errors
    lines += ["--help"] + [f"{command} --help" for command in (
        "singer", "derive", "build", "verify", "spectrum", "exact-g", "table")]
    lines += ["singer", "singer abc", "build 3 --format json", "verify",
              "exact-g 12 --budget abc", "spectrum 3 --budget", "table",
              "no-such-command"]
    # integers are ASCII decimal: other scripts' digits, "_" and "+" are refused
    lines += ["singer \u0663", "exact-g 1_2", "spectrum 3 --budget \uff15", "table +3"]
    # large q: towers 49 and 64, prime 37
    lines += ["singer 64 --format tsv", "derive 49 --format json", "spectrum 37 --format tsv",
              "build 27 --format graph6", "table 64 --format json"]
    return lines


COMMAND_LINES = _command_lines()


def _verify_input(name: str, golden: dict) -> str:
    """Input text for a verify case: a recorded build, the repeated graph,
    or one of the refused inputs."""
    if name == "repeated.edgelist":
        return REPEATED
    if name in REFUSED:
        return REFUSED[name]
    q, fmt = name.removeprefix("build-").split(".")
    return golden[f"build {q} --format {fmt}"]["stdout"]


def _invoke(line: str, golden: dict, workdir: pathlib.Path) -> dict:
    argv = line.split()
    if argv[0] == "verify" and len(argv) > 1 and not argv[1].startswith("-"):
        target = workdir / argv[1]
        target.write_text(_verify_input(argv[1], golden))
        argv[1] = str(target)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_grid_is_recorded(golden):
    assert list(golden) == COMMAND_LINES


@pytest.mark.parametrize("line", COMMAND_LINES,
                         ids=[line.replace(" ", "_") for line in COMMAND_LINES])
def test_output_matches_golden(line, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _invoke(line, golden, tmp_path) == golden[line]


def _record() -> None:
    import tempfile
    os.environ["COLUMNS"] = "80"
    recorded: dict = {}
    with tempfile.TemporaryDirectory() as workdir:
        for line in COMMAND_LINES:
            recorded[line] = _invoke(line, recorded, pathlib.Path(workdir))
    GOLDEN.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
