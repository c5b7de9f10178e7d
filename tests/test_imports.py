"""No module of the package imports a name it never reads, exports in
__all__ a name it never binds, or assigns to a private attribute of an
object other than self or cls."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stable_info"


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source that the
    module never reads (__future__ imports aside)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def unbound_exports(source: str) -> list[str]:
    """The names in the module-level __all__ of source that no
    module-level statement binds (def, class, import or assignment)."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names and isinstance(node, ast.Assign):
                exported = list(ast.literal_eval(node.value))
    return [name for name in exported if name not in bound]


def foreign_private_writes(source: str) -> list[str]:
    """The targets, as written, of the assignments in source to an
    underscore attribute of anything but the names self and cls."""
    tree = ast.parse(source)
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    return [
        ast.unparse(t)
        for target in targets
        for t in ast.walk(target)
        if isinstance(t, ast.Attribute)
        and isinstance(t.ctx, ast.Store)
        and t.attr.startswith("_")
        and not (isinstance(t.value, ast.Name) and t.value.id in ("self", "cls"))
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_attribute_of_another_object_is_assigned(path):
    assert foreign_private_writes(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import os.path\n"
        "from . import stable\n"
        "from .density import SaS, Shifted\n"
        "def f(x):\n"
        "    import json\n"
        "    return math.log(x) + os.path.sep + SaS(1.5, x)\n"
    )
    assert unused_imports(source) == ["np", "stable", "Shifted"]


def test_unbound_exports_are_found():
    source = (
        "import math\n"
        "from .gridded import TailLaw as Tail\n"
        '__all__ = ["f", "Box", "LIMIT", "pair_a", "Tail", "math", "gone", "inner"]\n'
        "LIMIT: int = 3\n"
        "pair_a, pair_b = 1, 2\n"
        "def f(x):\n"
        "    inner = x\n"
        "    return inner\n"
        "class Box:\n"
        "    pass\n"
    )
    assert unbound_exports(source) == ["gone", "inner"]


def test_foreign_private_writes_are_found():
    source = (
        "class Box:\n"
        "    def __init__(self, f):\n"
        "        self._kept = f\n"
        "        self._n: int = 0\n"
        "        f._cache = None\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        cls._made = True\n"
        "def g(f, other):\n"
        "    f.public = 1\n"
        "    f.inner._x += 1\n"
        "    a, other._y = 1, 2\n"
        "    f._z: float = 0.0\n"
        "    return f._read\n"
    )
    assert sorted(foreign_private_writes(source)) == ["f._cache", "f._z", "f.inner._x", "other._y"]
