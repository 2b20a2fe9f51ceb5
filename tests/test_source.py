"""Invariants of the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "interlacement"


def test_no_assert_in_src():
    # ``python -O`` strips assert statements, so the package checks its
    # inputs and invariants with typed exceptions only
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")) and found == []


def _unused_imports(tree):
    """(line, name) of each name the module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_import_in_src():
    # import lists edited by hand keep no name the module stopped using
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _unused_imports(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert list(SRC.glob("*.py")) and found == []
