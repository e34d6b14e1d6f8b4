"""Freeze the canonical outputs that every benchmark run checks against.

Runs each workload's canonical inputs once and writes the parsed outputs
to ``perfbench/expected.json``.  Run it from the repository root only when
the workloads change, on a commit whose outputs are trusted:

    python3 perfbench/freeze_expected.py
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    cubacode = run.import_cubacode()
    frozen = {}
    for workload in wl.WORKLOADS:
        frozen[workload] = {}
        for op in wl.ops(workload, None):
            status, out, err = run.run_op(cubacode.cli, op)
            if status != 0:
                print(f"{op.key}: exit status {status}\n{err}", file=sys.stderr)
                return 1
            frozen[workload][op.key] = wl.parse_output(op.kind, out)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
