"""The package's top-level names are the ones the README's Library section
uses, importing the command line loads none of ``dataclasses``, ``inspect``
and ``json``, no module under tests/ imports a test module, and the README
quotes the mutation audit's mutant count."""

import ast
import pathlib
import re
import subprocess
import sys

import cyclespec
import mutants

TESTS = pathlib.Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


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


def test_cli_import_leaves_out_dataclasses_inspect_and_json():
    # every invocation pays for its imports, and these cost more than most
    # commands' work; the records are NamedTuples and the CLI writes its own
    # JSON for that reason.  Only what the import adds counts: a .pth file of
    # the interpreter's site packages may load inspect before any package does.
    probe = ("import sys; before = set(sys.modules); import cyclespec.cli; "
             "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout == "[]\n"


def _imported_test_modules(path):
    """The modules named ``test_*`` that the Python file at ``path`` imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return [name for name in names if name.split(".")[0].startswith("test_")]


def test_no_test_module_imports_another():
    # shared helpers and references live in tests/references.py; a test
    # module importing another can form an import cycle that fails collection,
    # and a module of any name importing a test module runs its checks twice
    paths = sorted(TESTS.rglob("*.py"))
    assert len(paths) > 10
    found = {path.name: _imported_test_modules(path) for path in paths}
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_readme_quotes_the_mutant_count():
    # the audit makes one mutant per site of every module under src/cyclespec
    total = sum(len(mutants._sites(ast.parse(path.read_text(encoding="utf-8"))))
                for path in (TESTS.parent / "src" / "cyclespec").glob("*.py"))
    assert f"Each of its {total} mutants" in " ".join(README.read_text().split())
