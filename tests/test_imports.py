"""No module of the package imports a name it never reads."""

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


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
