"""Source hygiene: every name a module of the package imports is used."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "liekernel"


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads and
    ``__all__`` does not list; ``from __future__`` imports are directives."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import pi, tau\nimport xml.dom\n__all__ = ['tau']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi"), (5, "xml")]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_imports_are_used(path):
    # __init__.py imports to re-export, so it is not scanned
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []
