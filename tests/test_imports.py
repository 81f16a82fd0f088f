"""Every name a surfspec module imports is used there, exported, or marked.

A name counts as used when the module's syntax tree loads it anywhere
outside its import (annotations included), as exported when the
module's ``__all__`` lists it, and as marked when its own line in the
import carries ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import surfspec

MODULES = sorted(Path(surfspec.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module neither uses,
    exports nor marks."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            exported |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            # `import a.b` binds a; `from __future__ import x` binds nothing
            name = (alias.asname or alias.name).split(".")[0]
            if getattr(node, "module", None) == "__future__" or name in used:
                continue
            if name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = (
        "from typing import Iterable, List\n"
        "import numpy as np\n"
        "from .mesh import refine  # noqa: F401\n"
        "from .eigen import (\n"
        "    solve_oneform,\n"
        "    uses_dense_path,\n"
        ")\n"
        "__all__ = ['solve_oneform']\n"
        "def f(x: List[int]):\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [(1, "Iterable"), (6, "uses_dense_path")]
