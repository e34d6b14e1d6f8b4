"""The experiment scripts under ``scripts/`` run to completion, each in a
fresh interpreter, and write what they promise; bad input exits 2 with an
error line, not a traceback."""

from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_loss_benchmark_script_writes_its_csvs(fresh_python, tmp_path):
    proc = fresh_python(str(SCRIPTS / "run_loss_benchmark.py"), "--pairs", "8", "--gammas", "0.1",
                        "--grid", "0.8", "3.3", "6", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "done"
    expected = {
        "sweep_alpha_8.csv": ("code,gamma,scale,nbar,fidelity", 12),
        "sweep_gamma_8.csv": ("code,gamma,scale,nbar,fidelity", 22),
        "pair_8.csv": ("gamma,", 1),
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, (head, rows) in expected.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith(head), lines[0]
        assert len(lines) == rows + 1, name


def test_catalog_report_script_prints_its_table(fresh_python):
    proc = fresh_python(str(SCRIPTS / "catalog_report.py"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[0] == "code"
    assert len(lines) == 12  # the header and one row per reference instance
    assert all("((" in line and "))" in line for line in lines[1:])


@pytest.mark.parametrize("args", [
    ["--pairs", "7"],
    ["--grid", "0.8", "3.3", "0"],
    ["--grid", "0.8", "3.3", "6.7"],
    ["--grid", "0.8", "3.3", "2", "--gammas", "1.5"],
    ["--pairs", "8", "--grid", "0.8", "3.3", "2", "--gammas", "0.1", "-0.1"],
    ["--pairs", "8", "--grid", "0", "3.3", "2"],
    ["--pairs", "8", "--grid", "0.8", "nan", "2"],
], ids=lambda v: " ".join(v))
def test_loss_benchmark_script_rejects_bad_input(fresh_python, tmp_path, args):
    # A rejected run writes nothing: the checks come before --outdir is made.
    outdir = tmp_path / "out"
    proc = fresh_python(str(SCRIPTS / "run_loss_benchmark.py"), *args, "--outdir", str(outdir))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not outdir.exists() or not any(outdir.iterdir())
