"""The benchmark's per-layer spans still attach: each entry point that
``perfbench/tracing.py`` wraps is reached through its module attribute."""

import importlib.util
import pathlib
import sys

from cyclespec import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_span_records(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    graph = str(tmp_path / "g13.txt")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (["singer", "3"], ["derive", "3"], ["build", "3", "--output", graph],
                     ["spectrum", "3"], ["exact-g", "5"], ["verify", graph], ["table", "3"]):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    expected = {f"{layer}.{name}" for layer, names in tracing.SPANS.items() for name in names}
    assert len(expected) == 15
    assert {span.name for span in tracer.spans} == expected
