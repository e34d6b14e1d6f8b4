"""cubacode benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload (see ``workloads.py``): a fixed list of
``cubacode`` commands called in-process through ``cubacode.cli.main(argv)``,
as a closed loop with one client.  The run

1. times set-up in fresh processes (``setup_probe.py``), spread over the
   run, and keeps the median;
2. runs the canonical inputs once, untimed, and compares every output with
   ``expected.json``;
3. with ``--trace 0``, runs seeded passes for ``--seconds`` and reports the
   end-to-end metrics; with ``--trace 1``, alternates untraced and traced
   passes on the same inputs, requires identical outputs, and reports the
   per-layer metrics, writing the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  Exit status 2 means the benchmark
could not run (for example, no ``src/cubacode`` next to it).
"""

import os

# One BLAS thread, set before numpy is first imported: default BLAS threading
# doubled CPU time on the two-mode workload and made it slower, not faster.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up probes per run, spread over the timed loop so that their median
# samples the whole run rather than one moment of it.
SETUP_PROBES = 11
_CAL_MATRIX = (np.arange(48 * 48).reshape(48, 48) % 7
               + 1j * (np.arange(48 * 48).reshape(48, 48) % 5)) / 48.0


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit status 2."""


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def run_op(cli, op: wl.Op):
    """Run one command in-process; returns (exit status, stdout, stderr).
    ``cli.main`` is looked up on every call so a traced binding is used."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
        except Exception:  # count the failure and keep the loop running
            traceback.print_exc()
            status = "traceback"
    return status, out.getvalue(), err.getvalue()


class Tally:
    """Ops attempted and failed, with the first problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op: wl.Op, status, stderr: str, problems):
        self.attempted += 1
        if status != 0:
            problems = [f"{op.key}: exit status {status}: {stderr.strip()[-300:]}"] + list(problems)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def calibrate() -> float:
    """Seconds taken by a fixed loop of interpreter and small-matrix work
    that uses no cubacode code.  Timed next to every command, it tracks how
    fast the host runs this process at that moment; a command's time over
    its calibration time stays steady while other tenants slow both."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 20000):
        acc += math.sqrt(i) / i
    a = _CAL_MATRIX
    for _ in range(30):
        w, v = np.linalg.eigh(a @ a.conj().T)
        a = (v * np.sqrt(np.abs(w))) @ v.conj().T / 8.0 + _CAL_MATRIX
        np.kron(a[:6, :6], a[:8, :8])
    return time.perf_counter() - t0


@dataclass
class Pass:
    wall: float  # seconds spent in the commands
    cal: float  # the same, each command divided by its calibration time
    cpu: float  # process CPU seconds, all threads
    results: list  # (exit status, stdout, stderr) per command


def run_pass(cli, ops, tracer=None) -> Pass:
    """Run one pass, calibrating before the first command and after each."""
    results, wall, cal, cpu = [], 0.0, 0.0, 0.0
    before = calibrate()
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            results.append(run_op(cli, op))
        else:
            with tracer.command(op.kind):
                results.append(run_op(cli, op))
        elapsed = time.perf_counter() - t0
        cpu += time.process_time() - c0
        after = calibrate()
        wall += elapsed
        cal += elapsed / (0.5 * (before + after))
        before = after
    return Pass(wall, cal, cpu, results)


def check_pass(ops, results, canonical, tally, compare_all=False):
    for op, (status, out, err) in zip(ops, results):
        problems = wl.check(op, out, canonical[op.key], compare_all) if status == 0 else []
        tally.record(op, status, err, problems)


def bench_rows(ops, results) -> int:
    return sum(len(wl.parse_output(op.kind, out).get("gamma", []))
               for op, (status, out, _) in zip(ops, results)
               if op.kind.startswith("bench-") and status == 0)


# ---------------------------------------------------------------------------
# Set-up, manifest
# ---------------------------------------------------------------------------


def measure_setup(workload: str) -> float:
    """Set-up seconds of one fresh process (``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def import_cubacode():
    if not (SRC / "cubacode" / "__init__.py").is_file():
        raise BenchError(f"no cubacode sources at {SRC.relative_to(ROOT)}/cubacode")
    sys.path.insert(0, str(SRC))
    import cubacode
    import cubacode.cli

    if Path(cubacode.__file__).resolve().parent != SRC / "cubacode":
        raise BenchError(f"imported cubacode from {cubacode.__file__}, not from the checkout")
    return cubacode


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = ROOT / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def manifest(args, cubacode) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cubacode": cubacode.__version__,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

COMMAND_KINDS = sorted({op.kind for w in wl.WORKLOADS for op in wl.ops(w, None)})


def layer_metrics(spans, rows: int) -> dict:
    """Per-layer values of one traced pass."""
    selfs = tr.self_times(spans)
    kind_of = {s.id: s.name.split(":", 1)[1] for s in spans if s.name.startswith("command:")}
    sums = defaultdict(float)
    for item in tr.TRACED:
        for stat in ("calls", "s", "self_s"):
            sums[f"{item.name}.{stat}"] = 0.0
    for kind in COMMAND_KINDS:
        sums[f"cli.main.{kind}.s"] = 0.0
    for s in spans:
        if s.name.startswith("command:"):
            continue
        dur = s.end - s.start
        sums[f"{s.name}.calls"] += 1
        sums[f"{s.name}.s"] += dur
        sums[f"{s.name}.self_s"] += selfs[s.id]
        if s.name == "cli.main":
            sums[f"cli.main.{kind_of[s.command]}.s"] += dur
        for key, value in s.attrs.items():
            sums[f"{s.name}.{key}"] += value
    evals = sums["fock.fidelity_details.calls"]
    out = dict(sums)
    out.update({
        "bench.evals": evals,
        "bench.evals_per_row": evals / rows if rows else 0.0,
        "fock.dim_mean": sums["fock.fidelity_details.dim"] / evals if evals else 0.0,
        "fock.branches_mean": sums["fock.fidelity_details.branches"] / evals if evals else 0.0,
        "fock.branch_bytes": sums["fock.fidelity_details.bytes"] / evals if evals else 0.0,
        "klcheck.kl_report.blocks": sums["klcheck.kl_report.blocks"],
    })
    return out


def split_problems(workload: str, per_pass: list) -> list:
    """Traced functions whose calls contradict the workloads they load."""
    problems = []
    for item in tr.TRACED:
        calls = [p[f"{item.name}.calls"] for p in per_pass]
        if workload in item.loads and min(calls) == 0:
            problems.append(f"{item.name} made no calls in a pass of {workload}")
        elif workload not in item.loads and max(calls) != 0:
            problems.append(f"{item.name} made {max(calls):g} calls on {workload}, expected none")
    return problems


def write_spans(path: Path, head: dict, spans: list):
    """The manifest, then one JSON line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"manifest": head}) + "\n")
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "thread": s.thread, "command": s.command,
                **({"attrs": s.attrs} if s.attrs else {}),
            }) + "\n")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cubacode = import_cubacode()
        setup_times = [measure_setup(args.workload)]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    canonical = json.loads((HERE / "expected.json").read_text())[args.workload]
    head = manifest(args, cubacode)
    print("manifest: " + json.dumps(head, sort_keys=True))
    cli = cubacode.cli
    tally = Tally()

    # Canonical inputs, untimed: every output against the frozen values.
    ops = wl.ops(args.workload, None)
    check_pass(ops, run_pass(cli, ops).results, canonical, tally, compare_all=True)

    plain, traced, per_pass, first_spans = [], [], [], None
    tracer = tr.Tracer() if args.trace else None
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() < start + args.seconds:
        ops = wl.ops(args.workload, wl.pass_rng(args.seed, index))
        if tracer is None:
            plain.append(run_pass(cli, ops))
        else:
            # Same inputs untraced and traced, in alternating order.
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                if not with_trace:
                    plain.append(run_pass(cli, ops))
                    continue
                tracer.install()
                try:
                    traced.append(run_pass(cli, ops, tracer))
                finally:
                    tracer.uninstall()
            for op, a, b in zip(ops, plain[-1].results, traced[-1].results):
                tally.record(op, b[0], b[2], [] if a[:2] == b[:2]
                             else [f"{op.key}: traced output differs from untraced output"])
            spans = tracer.take()
            first_spans = first_spans or spans
            per_pass.append(layer_metrics(spans, bench_rows(ops, plain[-1].results)))
        check_pass(ops, plain[-1].results, canonical, tally)
        index += 1
        share = min(1.0, (time.perf_counter() - start) / args.seconds)
        while len(setup_times) < 1 + round((SETUP_PROBES - 1) * share):
            setup_times.append(measure_setup(args.workload))

    walls = [p.wall for p in plain]
    q1, q3 = quartiles(walls)
    summary = (f"{args.workload} seed {args.seed}: {len(walls)} passes, pass_s median "
               f"{statistics.median(walls):.4f} s (quartiles {q1:.4f}, {q3:.4f}), pass_cal median "
               f"{statistics.median(p.cal for p in plain):.2f} cal; setup_s median "
               f"{statistics.median(setup_times):.4f} s of {len(setup_times)} probes; "
               f"failed_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")
    print(summary)
    print("pass walls: " + " ".join(f"{w:.4f}" for w in walls))
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_cal": statistics.median(p.cal for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = spec["end_to_end"]
    else:
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["pass.wall_s"] = statistics.median(walls)
        values["proc.cpu_s"] = statistics.median(p.cpu for p in plain)
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(walls))
        names = spec["per_layer"]
        for problem in tracer.missing + split_problems(args.workload, per_pass):
            print(f"split: {problem}")
        # The first traced pass's spans; later passes enter only the metrics.
        write_spans(HERE / "out" / f"trace-{args.workload}.jsonl", head, first_spans)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
