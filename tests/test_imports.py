"""Every imported name is used in the module that imports it."""

import ast
from pathlib import Path

import pytest

import geoseg

SOURCES = sorted(Path(geoseg.__file__).parent.glob("*.py")) \
    + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import binds and the module never
    reads.  A name listed in ``__all__`` is a re-export, which counts as a
    use."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0],
                                 node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scanner_sees_unused_and_used_imports():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\nfrom __future__ import annotations\n"
              "from f import g, h\n__all__ = ['g']\n"
              "np.zeros(1)\nprint(e, x.y)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c"), (6, "h")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
