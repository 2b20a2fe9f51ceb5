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


def _package_imports(tree):
    """Package modules a module imports, at top level or in a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


# the lower layers, each with the package modules it may import
_LAYERS = {
    "errors": set(),
    "graph4": {"errors"},
    "gf2": {"errors"},
    "euler": {"errors", "graph4"},
}


def test_lower_layers_import_only_their_own():
    # the graph model and the GF(2) layer stand on errors alone, and the
    # Euler-system layer on the graph model, so `euler` and `orbit` load
    # no linear algebra
    found = {
        name: _package_imports(
            ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        )
        for name in _LAYERS
    }
    assert found == _LAYERS
