"""Every name a surfspec module imports is used there, exported, or marked,
every private module-level name is loaded somewhere in the package, and
every name a module exports is defined there.

A name counts as used when the module's syntax tree loads it anywhere
outside its import (annotations included), as exported when the
module's ``__all__`` lists it, and as marked when its own line in the
import carries ``# noqa: F401``.  A private name (one leading underscore,
not a dunder) that a module defines as a function, class or assignment
at its top level, or as a method or nested function at any depth, must
be loaded, as a name or an attribute, outside its own definition by some
module of the package.  Chart data has one policy: the face walk of
``assembly`` is the only caller of ``_chart_data``, whose ``faces`` has no
default, so no quadrature takes the whole mesh in one pass.
"""

import ast
import importlib
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
        "    solve_plan,\n"
        ")\n"
        "__all__ = ['solve_oneform']\n"
        "def f(x: List[int]):\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [(1, "Iterable"), (6, "solve_plan")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_exported_name_is_defined(path):
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *` with an AttributeError
    name = "surfspec" if path.stem == "__init__" else f"surfspec.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def orphaned_private_names(sources: dict) -> list:
    """(module, name) of each private module-level function, class or
    assigned name, and of each private method or nested function, that no
    source in ``sources`` (module -> text) loads outside its own
    definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = {}  # name -> ids of the Name and Attribute nodes that load it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = getattr(node, "id", getattr(node, "attr", None))
                loads.setdefault(name, set()).add(id(node))
    orphans = []
    for module, tree in trees.items():
        top = {id(node) for node in tree.body}
        inner = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and id(node) not in top
        ]
        for node in [*tree.body, *inner]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                found = [n for t in targets for n in ast.walk(t)]
                names = [
                    n.id for n in found
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not loads.get(name, set()) - inside:
                    orphans.append((module, name))
    return orphans


def test_every_private_name_is_loaded():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert orphaned_private_names(sources) == []


def test_orphaned_private_name_is_found():
    sources = {
        "a": (
            "__version__ = '1'\n"
            "_LIMIT: int = 3\n"
            "_pair, _left_over = 1, 2\n"
            "def _recurse(n):\n"
            "    return _recurse(n - 1) if n else _LIMIT\n"
            "class _Box:\n"
            "    def _entry(self):\n"
            "        return self._helper()\n"
            "    def _helper(self):\n"
            "        def _inner():\n"
            "            return 2\n"
            "        return 1\n"
            "    def _dead(self):\n"
            "        return self._dead()\n"
            "def _unused():\n"
            "    return _Box()\n"
            "def _by_attribute():\n"
            "    return _pair\n"
            "_TABLE = {}\n"
            "_TABLE['x'] = [_ for _ in (1,)]\n"
        ),
        "b": (
            "from . import a\n"
            "print(a._by_attribute(), a._LIMIT, a._Box()._entry())\n"
        ),
    }
    assert orphaned_private_names(sources) == [
        ("a", "_left_over"),
        ("a", "_recurse"),
        ("a", "_unused"),
        ("a", "_dead"),
        ("a", "_inner"),
    ]


def chart_data_policy(sources: dict) -> list:
    """The calls of ``_chart_data`` in ``sources`` (module -> text), each
    as (module, the top-level function holding it), then the parameters
    that its definition gives a default, as (module, "name=")."""
    calls, defaults = [], []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "_chart_data":
                        calls.append((module, getattr(top, "name", None)))
                elif isinstance(node, ast.FunctionDef) and node.name == "_chart_data":
                    args = node.args
                    params = [*args.posonlyargs, *args.args]
                    named = params[len(params) - len(args.defaults):]
                    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                    defaults += [(module, f"{a.arg}=") for a in named]
    return calls + defaults


def test_chart_data_has_one_caller_and_no_default_faces():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert chart_data_policy(sources) == [("assembly", "_face_blocks")]


def test_a_second_chart_data_policy_is_found():
    sources = {
        "assembly": (
            "def _chart_data(mesh, metric, rule, faces=slice(None), *, k=1):\n"
            "    return faces\n"
            "def _face_blocks(mesh, metric, rule):\n"
            "    yield _chart_data(mesh, metric, rule, slice(0, 1))\n"
            "def assemble_oneform(scalar):\n"
            "    return _chart_data(scalar.mesh, scalar.metric, 'midpoint')\n"
        ),
        "verify": (
            "from . import assembly\n"
            "data = assembly._chart_data(None, None, 'midpoint')\n"
        ),
    }
    assert chart_data_policy(sources) == [
        ("assembly", "_face_blocks"),
        ("assembly", "assemble_oneform"),
        ("verify", None),
        ("assembly", "faces="),
        ("assembly", "k="),
    ]
