"""Every module under ``src/cubacode``, ``scripts`` and ``tests`` reads
every name it imports, and imports no third-party package that
``pyproject.toml`` does not declare.  The checks parse the sources with
the standard library alone, so they run wherever the tests do."""

import ast
import re
import sys
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


def declared_requirements(pyproject: str) -> set:
    """The distribution names in pyproject.toml's ``dependencies`` and its
    ``test`` extra, lower-cased with ``-`` as ``_``.  Read by pattern, as
    ``tomllib`` is new in Python 3.11."""
    names = set()
    for key in ("dependencies", "test"):
        block = re.search(rf"^{key}\s*=\s*\[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
        assert block, f"pyproject.toml has no {key} list"
        names |= {name.lower().replace("-", "_")
                  for name in re.findall(r"[\"']([A-Za-z0-9_.-]+)", block.group(1))}
    return names


def undeclared_imports(source: str, known: set) -> list:
    """The top-level packages a module imports (absolute imports only) that
    are neither in the standard library nor in ``known``, sorted."""
    tops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            tops.add(node.module.split(".")[0])
    return sorted(top for top in tops if top not in sys.stdlib_module_names and top not in known)


def test_every_third_party_import_is_declared():
    # Known: what pyproject.toml installs, the package itself, and the
    # modules beside each other in a folder (conftest).  Import names
    # equal distribution names for every dependency so far.
    known = declared_requirements((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    known.add("cubacode")
    paths = sorted(path for folder in SOURCES for path in (ROOT / folder).rglob("*.py"))
    known |= {path.stem for path in paths}
    undeclared = {str(path.relative_to(ROOT)): names for path in paths
                  if (names := undeclared_imports(path.read_text(encoding="utf-8"), known))}
    assert undeclared == {}


def test_declared_import_check_sees_undeclared_packages():
    pyproject = ('[project]\n'
                 'dependencies = ["numpy>=1.24"]\n'
                 '[project.optional-dependencies]\n'
                 'test = ["pytest>=7", "Hypothesis"]\n')
    known = declared_requirements(pyproject)
    assert known == {"numpy", "pytest", "hypothesis"}
    source = ("import os, json\n"
              "import numpy as np\n"
              "from scipy.stats import unitary_group\n"
              "from hypothesis import given\n"
              "from . import sibling\n"
              "from conftest import rng\n"
              "def f():\n"
              "    import pandas\n")
    assert undeclared_imports(source, known | {"conftest"}) == ["pandas", "scipy"]
