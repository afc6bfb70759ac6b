"""The package stays stdlib-only (``dependencies = []``): every absolute
import in ``src/gamma_top`` names ``gamma_top`` or a standard-library
module."""

import ast
import sys
from pathlib import Path

import gamma_top

PACKAGE = Path(gamma_top.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """The top-level module names of the absolute imports in *source*,
    at any depth, that are neither ``gamma_top`` nor in the standard
    library; relative imports stay inside the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if (top := name.partition(".")[0]) != "gamma_top" and top not in sys.stdlib_module_names]


def test_every_module_imports_the_standard_library_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_guard_finds_a_foreign_import_at_any_depth():
    source = ("import json, os.path\nfrom gamma_top.finspace import PointSet\nfrom . import jsonout\n"
              "def f():\n    import numpy.linalg\n    from hypothesis import given\n")
    assert foreign_imports(source) == ["numpy.linalg", "hypothesis"]
