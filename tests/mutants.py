"""Mutation audit of ``src/cyclespec``: is every guard in it needed?

Each mutant deletes one check, by one of three operators:

- ``if->False``: the test of an ``if`` statement becomes ``False``;
- ``and->True`` / ``or->False``: one operand of an ``and`` becomes
  ``True``, or of an ``or`` becomes ``False``;
- ``sorted->list``: ``sorted(x)`` becomes ``list(x)``.

The checkout, without ``.git``, is copied to a temporary directory, so
the working tree is never written.  The copy's modules are first passed
unchanged through ``ast.unparse``, which drops comments and reformats, and
the tier-1 suite must still pass on them.  Then each mutant runs
against its module's test file and the golden CLI grid, with ``-x`` and a
timeout of 300 s; a failure or a timeout kills it.  A mutant that
survives runs again on the whole tier-1 suite.  Each mutant still alive
then is printed as ``module.py:line operator`` with the expression it
replaced, and the exit code is 1 if there is any.  There are no exceptions:
a fast path whose mutant gives the same answer is pinned by a test that
counts the work it saves.

Standard library only; the name keeps pytest from collecting it.  Run it
by hand, naming modules (the default is all of them):

    PYTHONPATH=src python tests/mutants.py cli cycleset finite_field graphs oracle singer
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path("src", "cyclespec")
GOLDEN_TESTS = "tests/test_cli_golden.py"
TIMEOUT_S = 300
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info",
                                 "build", "dist", "results")


def _sites(tree: ast.Module) -> list[tuple[ast.AST, int | None]]:
    """Every mutable spot, in source order: (node, operand index or None).
    An ``if`` comes before the first operand of its test, which starts there."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            sites.append((node, None))
        elif isinstance(node, ast.BoolOp):
            sites.extend((node, index) for index in range(len(node.values)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "sorted"):
            sites.append((node, None))
    return sorted(sites, key=lambda site: (_target(*site).lineno, _target(*site).col_offset))


def _target(node: ast.AST, index: int | None) -> ast.AST:
    """The expression a mutant replaces."""
    if isinstance(node, ast.If):
        return node.test
    if isinstance(node, ast.BoolOp):
        return node.values[index]
    return node


def _mutate(node: ast.AST, index: int | None) -> str:
    """Apply one mutant in place; returns the operator's name."""
    if isinstance(node, ast.If):
        node.test = ast.Constant(False)
        return "if->False"
    if isinstance(node, ast.BoolOp):
        value = isinstance(node.op, ast.And)
        node.values[index] = ast.Constant(value)
        return f"{'and' if value else 'or'}->{value}"
    node.func, node.keywords = ast.Name("list", ast.Load()), []
    return "sorted->list"


def mutants(source: str):
    """(line, operator, replaced expression, mutated source) per mutant;
    lines count in ``source``, the mutated source is unparsed."""
    for position in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)  # a fresh tree per mutant
        node, index = _sites(tree)[position]
        target = _target(node, index)
        line, replaced = target.lineno, ast.unparse(target)
        operator = _mutate(node, index)
        yield line, operator, replaced, ast.unparse(tree)


def _passes(copy: pathlib.Path, tests: list[str]) -> bool:
    """Whether pytest passes ``tests`` in the copy; a timeout counts as failing."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        return False
    finally:  # on a timeout, or when the audit itself is stopped
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and anything it started
            proc.wait()


def main(argv: list[str]) -> int:
    # a stopped audit still removes its copy and the pytest run in it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    available = sorted(path.stem for path in (ROOT / PACKAGE).glob("*.py"))
    modules = argv or available
    unknown = sorted(set(modules) - set(available))
    if unknown:
        print(f"unknown modules: {', '.join(unknown)}; choose from {', '.join(available)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        copy = pathlib.Path(scratch, "checkout")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        originals, unparsed = {}, {}
        for module in modules:
            path = copy / PACKAGE / f"{module}.py"
            originals[module] = path.read_text()
            unparsed[module] = ast.unparse(ast.parse(originals[module]))
            path.write_text(unparsed[module])
        if not _passes(copy, []):
            print("the tier-1 suite fails on the unparsed, unmutated modules", file=sys.stderr)
            return 2
        survivors = []
        for module in modules:
            path = copy / PACKAGE / f"{module}.py"
            own = f"tests/test_{module}.py"
            tests = [own, GOLDEN_TESTS] if (copy / own).exists() else [GOLDEN_TESTS]
            for line, operator, replaced, mutated in mutants(originals[module]):
                path.write_text(mutated)
                alive = _passes(copy, tests) and _passes(copy, [])
                label = f"{module}.py:{line} {operator}  {replaced}"
                print(f"{'SURVIVED' if alive else 'killed  '} {label}", file=sys.stderr)
                if alive:
                    survivors.append(label)
            path.write_text(unparsed[module])
    for label in survivors:
        print(label)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
