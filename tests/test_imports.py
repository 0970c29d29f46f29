"""Imports inside hybench go one way.  ``agents`` and ``models`` name
``Dataset`` only in annotations, so they import ``data`` only for type
checking, and ``data`` imports ``agents`` at module top.  The one import
made inside a function is ``data``'s import of ``bench``, which imports
``data``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hybench"


class RelativeImports(ast.NodeVisitor):
    """Each relative import of a module: (module imported, enclosing
    function or None, whether it sits under ``if TYPE_CHECKING:``)."""

    def __init__(self):
        self.found = []
        self._function = None
        self._type_checking = False

    def visit_FunctionDef(self, node):
        outer, self._function = self._function, node.name
        self.generic_visit(node)
        self._function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node):
        if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
            return self.generic_visit(node)
        outer, self._type_checking = self._type_checking, True
        for child in node.body:
            self.visit(child)
        self._type_checking = outer
        for child in node.orelse:
            self.visit(child)

    def visit_ImportFrom(self, node):
        if node.level:
            modules = [node.module] if node.module else [a.name for a in node.names]
            self.found += [(m, self._function, self._type_checking) for m in modules]


def relative_imports(path):
    visitor = RelativeImports()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.found


def test_the_only_function_level_import_is_data_importing_bench():
    inside = [(path.stem, module, function) for path in sorted(SRC.glob("*.py"))
              for module, function, _ in relative_imports(path) if function is not None]
    assert inside == [("data", "bench", "_medium_checkpoint")]


@pytest.mark.parametrize("name", ["agents", "models"])
def test_data_is_imported_only_for_type_checking(name):
    found = relative_imports(SRC / f"{name}.py")
    assert ("data", None, True) in found
    assert [imp for imp in found if imp[0] == "data" and not imp[2]] == []
