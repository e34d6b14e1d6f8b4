"""The experiment scripts under ``scripts/`` run to completion, each in a
fresh interpreter, print what they promise, and use only the public names
of ``cubacode``."""

import ast
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_catalog_report_script_prints_its_table(fresh_python):
    proc = fresh_python(str(SCRIPTS / "catalog_report.py"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[0] == "code"
    assert len(lines) == 12  # the header and one row per reference instance
    assert all("((" in line and "))" in line for line in lines[1:])


def private_imports(source: str) -> list:
    """The `_`-prefixed names (dunders aside) that a script imports from
    cubacode, as dotted paths."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return [name for name in names if name.split(".")[0] == "cubacode" and any(
        part.startswith("_") and not part.endswith("__") for part in name.split("."))]


def test_scripts_import_only_public_names():
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts
    for path in scripts:
        assert private_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_private_import_check_sees_private_names():
    source = ("from cubacode.cli import _write_csv, main\n"
              "from cubacode import __version__, build_catalog_code\n"
              "from numpy import _pytesttester\n"
              "import cubacode._internal\n")
    assert private_imports(source) == ["cubacode.cli._write_csv", "cubacode._internal"]
