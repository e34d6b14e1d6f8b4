#!/usr/bin/env python3
"""List the functions under src/cubacode that no command enters.

Runs, in this process through ``cubacode.cli.main``, every ``cubacode``
line of the README's "Command line" block (their ``--out`` files go to a
temporary directory) and the canonical commands of the benchmark
workloads (read from ``perfbench/workloads.py``).  A profiling hook
(``sys.setprofile``) records every Python function entered meanwhile.
Prints the count, then each function defined in src/cubacode that was
never entered, as module.qualified_name and its line, in source order.
Nested functions count on their own.  Exits 1 when a command fails.

Functions that only other input reaches (a catalog entry no listed command
builds, a code file, bad input) are listed too: the list is where to look
for dead code, not what to delete.

Usage:
    python scripts/reach.py
"""

import ast
import contextlib
import importlib.util
import io
import os
import shlex
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from cubacode.cli import main as cli_main  # noqa: E402


def readme_commands() -> list:
    """The argv of each `cubacode ...` line of the README's "Command line"
    block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("cubacode ")]


def workload_commands() -> list:
    """The argv of each canonical command of every benchmark workload."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [list(op.argv) for name in workloads.WORKLOADS for op in workloads.ops(name, None)]


def defined_functions() -> list:
    """(file, first line, module.qualified_name) of every function defined
    under src/cubacode, in source order; the first line is that of the
    first decorator, as in the function's code object."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((path, first, name))
                visit(child, path, name)

    for path in sorted((SRC / "cubacode").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), os.path.realpath(path), path.stem)
    return found


def run_all(commands: list, outdir: str) -> tuple:
    """Run every command with its --out moved into outdir; returns the set
    of (file, first line) of every function entered and the failures."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    failures = []
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for argv in commands:
            argv = list(argv)
            if "--out" in argv:
                at = argv.index("--out") + 1
                argv[at] = os.path.join(outdir, os.path.basename(argv[at]))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                status = cli_main(argv)
            if status != 0:
                failures.append((argv, status, err.getvalue().strip()))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(os.path.realpath(f), line) for f, line in entered}, failures


def main() -> int:
    commands = readme_commands() + workload_commands()
    with tempfile.TemporaryDirectory() as outdir:
        entered, failures = run_all(commands, outdir)
    for argv, status, err in failures:
        print(f"failed ({status}): cubacode {shlex.join(argv)}: {err}", file=sys.stderr)
    functions = defined_functions()
    missed = [(name, line) for path, line, name in functions if (path, line) not in entered]
    print(f"{len(commands)} commands; {len(missed)} of {len(functions)} functions "
          f"under src/cubacode never entered:")
    for name, line in missed:
        print(f"  {name} (line {line})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
