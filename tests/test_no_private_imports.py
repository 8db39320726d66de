"""No package module imports an underscore name from a sibling module:
what one module needs of another is part of that module's public face."""

import ast
import pathlib

import fairbalance


def test_no_module_imports_a_private_sibling_name():
    package = pathlib.Path(fairbalance.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("fairbalance"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
