"""Import discipline inside the package: no module imports an underscore
name from a sibling (what one module needs of another is part of that
module's public face), no module imports a sibling inside a function body,
and the module-level imports between siblings form no cycle.  Every
exception class the package defines maps to a CLI exit code."""

import ast
import graphlib
import importlib
import inspect
import pathlib

import fairbalance
from fairbalance.cli import InputError
from fairbalance.core import FairDivisionError

PACKAGE = pathlib.Path(fairbalance.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def test_no_module_imports_a_private_sibling_name():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("fairbalance"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def _siblings(node) -> list:
    """The package modules an import statement loads ([] for any other node)."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("fairbalance.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        base = node.module or ""
    elif node.level == 0 and (node.module or "").split(".")[0] == "fairbalance":
        base = node.module.partition(".")[2]
    else:
        return []
    if base:
        return [base.split(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def _sibling_imports(tree) -> list:
    """(line, sibling, inside a function) per sibling import; the body of
    an ``if TYPE_CHECKING:`` block never runs, so it is skipped."""
    found = []

    def visit(node, in_function):
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        found.extend((node.lineno, sibling, in_function) for sibling in _siblings(node))
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            children = node.orelse
        for child in children:
            visit(child, in_function)

    visit(tree, False)
    return found


IMPORTS = {path.stem: _sibling_imports(ast.parse(path.read_text(encoding="utf-8")))
           for path in SOURCES}


def test_no_module_imports_a_sibling_inside_a_function():
    found = [f"{name}.py:{line} imports {sibling}"
             for name, imports in IMPORTS.items()
             for line, sibling, in_function in imports if in_function]
    assert found == []


def test_module_level_sibling_imports_form_no_cycle():
    graph = {name: {sibling for _, sibling, in_function in imports
                    if not in_function and sibling != name}
             for name, imports in IMPORTS.items()}
    assert "verify" in graph["oracle"] and "graph" in graph["verify"]
    assert set().union(*graph.values()) <= MODULES
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_every_exception_class_maps_to_an_exit_code():
    # main() maps InputError to exit 2 and FairDivisionError's subclasses
    # to 3 or 4; any other class would escape it as a traceback
    defined = [cls for name in sorted(MODULES)
               for cls in vars(importlib.import_module(f"fairbalance.{name}")).values()
               if inspect.isclass(cls) and issubclass(cls, BaseException)
               and cls.__module__ == f"fairbalance.{name}"]
    assert InputError in defined and FairDivisionError in defined
    assert [cls.__qualname__ for cls in defined
            if cls is not InputError and not issubclass(cls, FairDivisionError)] == []
