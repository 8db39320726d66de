"""Every name a module of the package, a test or a demo imports is loaded
somewhere in that module.

Exempt are ``from __future__ import ...``, names the module lists in its
``__all__`` (a re-export is its use) and imports on a line marked
``# noqa: F401`` (a binding kept for something outside the module to
find).
"""

import ast
import pathlib

import fairbalance

PACKAGE = pathlib.Path(fairbalance.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py")))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(path: pathlib.Path) -> list:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exempt = _exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded and bound not in exempt:
                found.append(f"{path.parent.name}/{path.name}:{node.lineno} {bound}")
    return found


def test_scan_sees_the_package_tests_and_demos():
    assert {path.parent.name for path in SOURCES} == {"fairbalance", "tests", "demos"}
    assert PACKAGE / "cli.py" in SOURCES


def test_every_imported_name_is_used():
    found = [entry for path in SOURCES for entry in _unused(path)]
    assert found == []
