"""The package states its invariants as raises, never as assert statements,
so they are still checked under python -O."""

import ast
import pathlib

import fairbalance


def test_source_has_no_assert_statements():
    package = pathlib.Path(fairbalance.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
