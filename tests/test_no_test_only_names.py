"""Every public name the package defines is run by the package itself, by
a demo or by the benchmark; a name only the tests call belongs in
``tests/``.

A name counts as used when some module of the package other than
``__init__.py``, a demo or a benchmark file loads it.  A module-level
name is used by a bare load or an attribute load (``module.name``); a
method, property or class attribute only by an attribute load
(``obj.name``).  The benchmark tracer looks its wrapped functions up by
the names in ``bench/tracing.py``'s ``TARGETS``, so those count as used
too.
"""

import ast
import pathlib

import fairbalance

PACKAGE = pathlib.Path(fairbalance.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
USERS = ([path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
         + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _public(name: str) -> bool:
    return not name.startswith("_")


def _assigned(node) -> list:
    """The plain names a module- or class-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _defined() -> list:
    """(label, name, is member) for each public module-level name and each
    public member of a public module-level class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            for name in filter(_public, _assigned(node)):
                found.append((f"{path.stem}.{name}", name, False))
                if isinstance(node, ast.ClassDef):
                    found += [(f"{path.stem}.{name}.{member}", member, True)
                              for child in node.body
                              for member in filter(_public, _assigned(child))]
    return found


def _targets() -> set:
    tree = _parse(ROOT / "bench" / "tracing.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _loads() -> tuple:
    """(bare names loaded, attribute names loaded) across the users."""
    bare, attributes = set(), set()
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return bare, attributes


def test_scan_sees_the_package_demos_and_benchmark():
    defined = {label for label, _, _ in _defined()}
    assert {"core.Instance", "core.Allocation.bundle", "matching.BipartiteWeights.size",
            "oracle.EnumerationReport.records"} <= defined
    assert {"case1_sweep", "detect_negative_cycle"} <= _targets()
    assert any(path.parent.name == "demos" for path in USERS)


def test_every_public_name_is_used_outside_the_tests():
    bare, attributes = _loads()
    targets = _targets()
    unused = [label for label, name, member in _defined()
              if name not in attributes and (member or (name not in bare and name not in targets))]
    assert not unused, "used only by the tests: " + ", ".join(unused)
