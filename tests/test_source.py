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
