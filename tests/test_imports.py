"""Every module under ``src/cubacode``, ``scripts`` and ``tests`` reads
every name it imports.  The check parses the sources with the standard
library alone, so it runs wherever the tests do."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/cubacode", "scripts", "tests")


def unused_imports(source: str) -> list:
    """The names a module imports (``from __future__`` aside) and never
    reads, in import order.  A name counts as read anywhere in the module,
    in any scope, and so does a string in ``__all__``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant) and isinstance(item.value, str)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(path for folder in SOURCES for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    unused = {str(path.relative_to(ROOT)): names for path in paths
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_import_check_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import itertools\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Optional, Union\n"
              "from math import comb as choose, log\n"
              "__all__ = ['log']\n"
              "def f(x: Optional[int]) -> int:\n"
              "    from functools import reduce\n"
              "    return np.sum(os.path.sep, x)\n")
    assert unused_imports(source) == ["itertools", "Union", "choose", "reduce"]
