"""The package's import graph: the modules form a DAG and every import sits
at module top level, so no module has to defer an import to break a cycle.
Importing the CLI loads neither dataclasses nor inspect."""

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

import dftbin

PACKAGE = Path(dftbin.__file__).resolve().parent


def _relative_imports(tree):
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            deps |= {node.module} if node.module else {a.name for a in node.names}
    return deps


def _parse():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_import_graph_is_acyclic():
    graph = {name: _relative_imports(tree) for name, tree in _parse().items()}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert graph["polynomial"] == set()


def test_no_import_inside_a_function():
    nested = []
    for name, tree in _parse().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{name}.{fn.name} line {node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_cli_import_loads_no_dataclasses():
    # dataclasses brings in inspect, ast, dis and tokenize, which every fresh
    # CLI process would pay for at start-up.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dftbin.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["[]"]
