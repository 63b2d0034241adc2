"""The package's top-level names are the ones the README's Library section uses."""

import pathlib
import re

import cyclespec

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_section():
    text = README.read_text()
    return text[text.index("## Library"):text.index("Modules:")]


def test_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", _library_section(), re.S)
    namespace = {}
    exec(code, namespace)
    assert namespace["anchors"] == (8, 12)


def test_public_names_are_the_documented_ones():
    assert set(cyclespec.__all__) <= set(re.findall(r"\w+", _library_section()))
    assert all(hasattr(cyclespec, name) for name in cyclespec.__all__)
