import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cubacode import build_catalog_code, normalize_energy, save_code
from cubacode.cli import build_parser, main
from cubacode.klcheck import codeword_gram


def readme_commands():
    """The `cubacode ...` lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("cubacode ")
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_entries(capsys):
    status, out, _ = run_cli(capsys, "catalog")
    assert status == 0
    assert "twoshell_24cell" in out
    assert "qcc8" in out


def test_params_two_shell_24cell(capsys):
    status, out, _ = run_cli(
        capsys, "params", "--catalog", "twoshell_24cell", "--tau", "2", "--normalize", "1"
    )
    assert status == 0
    assert "(( 2, 2, 0.55994" in out
    assert "<6,8,12>" in out


def test_params_hexagon(capsys):
    status, out, _ = run_cli(
        capsys, "params", "--catalog", "polygon_shells",
        "--m", "6", "--p", "2", "--radii", "1,2", "--ceiling", "20",
    )
    assert status == 0
    assert "<7,8,18>" in out


def test_show_unknown_name_exits_2(capsys):
    status, _, err = run_cli(capsys, "show", "--catalog", "not-a-code")
    assert status == 2
    assert "available" in err


@pytest.mark.parametrize("name, params", [("cat", {"m": 8}), ("cell16_qutrit", {})])
def test_show_code_file_describes_like_the_catalog(name, params, tmp_path, capsys):
    # One description for every code; only a catalog entry has nominal
    # parameters.
    path = tmp_path / "code.json"
    save_code(build_catalog_code(name, params), path)
    flags = [a for key, val in params.items() for a in (f"--{key}", str(val))]
    status, from_catalog, _ = run_cli(capsys, "show", "--catalog", name, *flags)
    assert status == 0
    status, from_file, _ = run_cli(capsys, "show", "--code-file", str(path))
    assert status == 0
    assert from_file.splitlines() == [
        line for line in from_catalog.splitlines() if "nominal parameters" not in line
    ]
    assert ("nominal parameters" in from_catalog) == (name == "cell16_qutrit")


def test_requires_exactly_one_source(capsys):
    status, _, err = run_cli(capsys, "params")
    assert status == 2
    assert "exactly one" in err


def test_malformed_code_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "x", "modes": 1,
        "logicals": [[{"point": [[1.0, 0.0]], "weight": -1.0}]],
    }))
    status, _, err = run_cli(capsys, "params", "--code-file", str(path))
    assert status == 2
    assert "$.logicals[0][0].weight" in err


def test_numerical_failure_exits_1(capsys):
    status, _, err = run_cli(
        capsys, "kl", "--catalog", "cat", "--m", "2", "--scale", "1e-7"
    )
    assert status == 1
    assert "degenerate" in err


def test_moments_csv_columns(tmp_path, capsys):
    out = tmp_path / "m.csv"
    status, _, _ = run_cli(
        capsys, "moments", "--catalog", "cat", "--m", "2",
        "--max-degree", "3", "--out", str(out),
    )
    assert status == 0
    header = out.read_text().splitlines()[0]
    assert header == "p,q,moment0_re,moment0_im,moment1_re,moment1_im,max_deviation"


def test_moments_reports_the_first_of_tied_deviations(capsys):
    # Four pairs of the two-shell 24-cell deviate by 0.7384615384615385 up
    # to a few ulps: (p, q) = ((0, 2), (0, 6)), ((0, 6), (0, 2)) and their
    # mode swaps.  The first in table order is reported, whatever the last
    # bits of the sums, and --tol plays no part in that choice.
    for tol in ("1e-9", "1"):
        status, out, _ = run_cli(
            capsys, "moments", "--catalog", "twoshell_24cell", "--tau", "2", "--r1", "1",
            "--max-degree", "8", "--tol", tol,
        )
        assert status == 0
        assert "largest deviation 0.738461538462 at (p, q) = ((0, 2), (0, 6))" in out.splitlines()
    assert "moment match degree: 8 (searched to 8, tol 1)" in out.splitlines()


def test_moments_reports_the_largest_deviation_whatever_the_tolerance(capsys):
    # A tolerance above every deviation matches every degree but still
    # reports the largest deviation and where it lies.
    argv = ("moments", "--catalog", "cat", "--m", "4", "--max-degree", "6")
    _, out, _ = run_cli(capsys, *argv)
    largest = next(line for line in out.splitlines() if line.startswith("largest deviation"))
    _, out, _ = run_cli(capsys, *argv, "--tol", "10")
    assert largest in out.splitlines()
    assert "moment match degree: 6 (searched to 6, tol 10)" in out.splitlines()
    assert not largest.startswith("largest deviation 0 ")


def test_kl_csv_written(tmp_path, capsys):
    out = tmp_path / "kl.csv"
    status, _, _ = run_cli(
        capsys, "kl", "--catalog", "cat", "--m", "2", "--scale", "2.5",
        "--max-loss", "1", "--out", str(out),
    )
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q_mu,q_nu,k,l,re,im"
    assert len(lines) == 1 + 4 * 4  # 2x2 error pairs, 2x2 blocks


def test_kl_builds_the_block_dict_only_for_out(tmp_path, capsys, monkeypatch):
    import cubacode.klcheck as klcheck

    reports, kl_report = [], klcheck.kl_report
    monkeypatch.setattr(klcheck, "kl_report",
                        lambda *args, **kwargs: reports.append(kl_report(*args, **kwargs)) or reports[-1])
    argv = ["kl", "--catalog", "cat", "--m", "2", "--scale", "2.5", "--max-loss", "1"]
    assert run_cli(capsys, *argv)[0] == 0
    assert "matrices" not in vars(reports[-1])
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "kl.csv"))[0] == 0
    assert "matrices" in vars(reports[-1])


def test_kl_rejects_a_scale_whose_blocks_overflow(capsys):
    # The blocks grow like (scale r_max)^(2 max_loss): at 1e38 and
    # --max-loss 4 they are still finite.  A RuntimeWarning fails the test.
    assert run_cli(capsys, "kl", "--catalog", "qsc8", "--scale", "1e38", "--max-loss", "4")[0] == 0
    for argv in (["--scale", "1e40", "--max-loss", "4"], ["--scale", "1e200"]):
        status, out, err = run_cli(capsys, "kl", "--catalog", "qsc8", *argv)
        assert status == 2
        assert out == ""
        assert err.startswith("error: scale ") and "too large" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["--scale", "1e90", "--max-loss", "0"],
                                  ["--scale", "1e60", "--max-loss", "1"]], ids=" ".join)
def test_kl_summary_is_finite_at_large_scales(argv, capsys):
    # qcc8's points are far apart at these scales, so the orthonormalized
    # blocks are diagonal and equal.  A RuntimeWarning fails the test.
    status, out, _ = run_cli(capsys, "kl", "--catalog", "qcc8", *argv)
    assert status == 0
    assert [line.rsplit(":", 1)[1].strip() for line in out.splitlines()[-4:]] == ["0"] * 4


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 128. GiB")],
                         ids=repr)
def test_memory_error_exits_2(exc, capsys, monkeypatch):
    import cubacode.klcheck as klcheck

    def too_large(*args, **kwargs):
        raise exc

    monkeypatch.setattr(klcheck, "kl_report", too_large)
    status, out, err = run_cli(capsys, "kl", "--catalog", "cube_orthoplex", "--D", "8",
                               "--scale", "2", "--max-loss", "30")
    assert status == 2
    assert out == ""
    assert err.startswith("error: the request is too large") and str(exc) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_stab_command_reports_residual(capsys):
    status, out, _ = run_cli(
        capsys, "stab", "--catalog", "cat", "--m", "2", "--scale", "2", "--cutoff", "64"
    )
    assert status == 0
    assert "z-type max residual" in out


def test_stab_strained_cutoff_warns_and_exits_0(fresh_python):
    # A cutoff too small for the Z-check is no failure: the residual is
    # truncation limited, and stderr says so.
    proc = fresh_python("-m", "cubacode.cli", "stab", "--catalog", "cat", "--m", "12",
                        "--scale", "5", "--cutoff", "10")
    assert proc.returncode == 0, proc.stderr
    assert "UserWarning: cutoff 10 is strained" in proc.stderr
    assert "z-type max residual ||F|C_k>||: 1\n" in proc.stdout
    # The warning names the input's problem, not a source file.
    assert ".py" not in proc.stderr
    assert proc.stderr == ("UserWarning: cutoff 10 is strained by polynomial degree 24 at "
                           "scale 5; residuals will be truncation limited\n")


def test_stab_codeword_vanishing_below_cutoff_exits_1(fresh_python):
    # At scale 40 every level below 100 underflows: the codewords are zero
    # there, and stab must fail rather than print residual 0.
    proc = fresh_python("-m", "cubacode.cli", "stab", "--catalog", "cat", "--m", "2",
                        "--scale", "40", "--cutoff", "100")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "numerical failure: codeword 0 has norm 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stab_poly_file_matches_derived_generator(tmp_path, capsys):
    # alpha^4 - 1 vanishes on the cat code's four points at scale 1.
    path = tmp_path / "polys.json"
    path.write_text(json.dumps({"polynomials": [
        {"terms": [{"u": [4], "re": 1.0}, {"u": [0], "re": -1.0}]}]}))
    argv = ("stab", "--catalog", "cat", "--m", "2", "--scale", "1", "--cutoff", "40")
    status, derived, _ = run_cli(capsys, *argv)
    assert status == 0
    status, supplied, _ = run_cli(capsys, *argv, "--poly-file", str(path))
    assert status == 0
    assert supplied == derived


def test_bench_sweep_alpha_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    status, _, _ = run_cli(
        capsys, "bench", "sweep-alpha", "--catalog", "cat", "--m", "4", "--K", "2",
        "--gamma", "0.1", "--grid", "1.0:2.0:3", "--jobs", "1", "--out", str(out),
    )
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "code,gamma,scale,nbar,fidelity,infidelity,cutoff,tail_mass,kraus_lmax"
    assert len(lines) == 4


def test_bench_output_is_deterministic(tmp_path, capsys):
    args = [
        "bench", "sweep-alpha", "--catalog", "cat", "--m", "4", "--K", "2",
        "--gamma", "0.08", "--grid", "1.0:2.2:4",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_pair_identical_codes_gives_unit_ratio(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    status, _, _ = run_cli(
        capsys, "bench", "pair", "--qcc", "qsc8", "--qsc", "qsc8",
        "--gammas", "0.1", "--grid", "1.2:2.8:5", "--jobs", "1", "--out", str(out),
    )
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,f_qsc,f_qcc,r_infidelity"
    ratio = float(lines[1].split(",")[-1])
    assert abs(ratio - 1.0) < 1e-9


def test_bench_two_mode_runs_without_big_flag(capsys):
    status, out, err = run_cli(
        capsys, "bench", "sweep-alpha", "--catalog", "qsc24", "--grid", "1.0:1.5:2", "--jobs", "1"
    )
    assert status == 0, err
    rows = [line.split(",") for line in out.splitlines() if line.startswith("qsc24,")]
    assert len(rows) == 2
    # No Fock cutoff, no dropped weight, no loss order: every order is kept.
    assert all(r[6:9] == ["0", "0", "0"] for r in rows)


@pytest.mark.parametrize("argv", [
    ("bench", "pair", "--pair", "24", "--big"),
    ("bench", "sweep-alpha", "--catalog", "cube_orthoplex", "--D", "6", "--big"),
], ids=" ".join)
def test_bench_large_codes_exit_0(argv, capsys):
    status, out, err = run_cli(capsys, *argv, "--jobs", "1")
    assert status == 0, err
    assert "nan" not in out


def header_values(out):
    """The ``# key = value`` lines of a report."""
    return dict(line[2:].split(" = ", 1) for line in out.splitlines()
                if line.startswith("# ") and " = " in line)


def test_bench_pair_skips_degenerate_grid_points(capsys):
    # The qsc24 codewords are degenerate at scale 0.75, the first grid point.
    status, out, err = run_cli(capsys, "bench", "pair", "--pair", "24", "--jobs", "1")
    assert status == 0, err
    status, low, err = run_cli(
        capsys, "bench", "pair", "--pair", "24", "--grid", "0.75:3.3:14", "--jobs", "1"
    )
    assert status == 0, err
    want, got = header_values(out), header_values(low)
    for key in ("qcc_alpha_op", "qsc_alpha_op"):
        assert abs(float(got[key]) - float(want[key])) <= 5e-4, key


@pytest.mark.parametrize("argv", [
    ("bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "0.8,2.0"),
    ("bench", "sweep-gamma", "--catalog", "qsc8", "--alpha-op", "0.8", "--gammas", "0,0.1"),
    ("bench", "pair", "--pair", "8", "--grid", "0.8:2.0:3", "--gammas", "0.1,0.2"),
], ids=" ".join)
def test_bench_reports_min_gram_ratio(argv, capsys):
    status, out, err = run_cli(capsys, *argv, "--jobs", "1")
    assert status == 0, err
    lines = [line for line in out.splitlines() if line.startswith("# min_gram_ratio = ")]
    assert len(lines) == 1
    ratio = float(header_values(out)["min_gram_ratio"])
    assert 0.0 < ratio <= 1.0
    if argv[1] != "pair":
        # The worst row is qsc8 at scale 0.8.
        code = normalize_energy(build_catalog_code("qsc8"), 1.0)[0]
        ev = np.linalg.eigvalsh(codeword_gram(code, 0.8))
        assert abs(ratio / (ev[0] / ev[-1]) - 1.0) < 1e-9


@pytest.mark.parametrize("argv", [
    ("bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "x"),
    ("bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "nan:2:3"),
    ("bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "1:2:x"),
    ("bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "0.8,inf"),
    ("bench", "pair", "--pair", "8", "--gammas", "x"),
    ("bench", "sweep-gamma", "--catalog", "qsc8", "--alpha-op", "abc"),
    ("bench", "sweep-gamma", "--catalog", "qsc8", "--alpha-op", "nan"),
    ("bounds", "--catalog", "polygon_shells", "--m", "6", "--p", "2", "--radii", "1,x"),
    ("kl", "--catalog", "cat", "--m", "2", "--scale", "nan"),
], ids=" ".join)
def test_bad_numeric_input_exits_2(argv, capsys):
    status, _, err = run_cli(capsys, *argv)
    assert status == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("named, argv", [
    ("--tol", ("params", "--catalog", "cat", "--m", "4", "--tol", "nan")),
    ("--tol", ("params", "--catalog", "cat", "--m", "4", "--tol", "-1")),
    ("--tol", ("moments", "--catalog", "cat", "--m", "4", "--tol", "nan")),
    ("--tol", ("moments", "--catalog", "cat", "--m", "4", "--tol", "-1")),
    ("maximum degree", ("moments", "--catalog", "cat", "--m", "4", "--max-degree", "-1")),
    ("--scale", ("kl", "--catalog", "cat", "--m", "2", "--scale", "x")),
    ("--scale", ("stab", "--catalog", "cat", "--m", "2", "--scale", "inf")),
    ("--normalize", ("params", "--catalog", "cat", "--m", "4", "--normalize", "nan")),
    ("--gamma", ("bench", "sweep-alpha", "--catalog", "qsc8", "--gamma", "nan")),
    ("--radius", ("show", "--catalog", "cat", "--m", "4", "--radius", "inf")),
    ("--tau", ("params", "--catalog", "twoshell_24cell", "--tau", "nan")),
    ("--r1", ("params", "--catalog", "twoshell_8_16", "--r1", "x", "--r2", "2")),
    ("--r2", ("params", "--catalog", "twoshell_8_16", "--r1", "1", "--r2=-inf")),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_bad_option_value_exits_2_before_output(named, argv, capsys):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error:") and named in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("stab", "--catalog", "cat", "--m", "4", "--scale", "0"),
    ("stab", "--catalog", "cat", "--m", "4", "--poly-file", "{missing}"),
    ("stab", "--catalog", "cat", "--m", "2", "--scale", "1", "--cutoff", "1"),
    ("bounds", "--catalog", "cat", "--m", "4", "--degree", "-1"),
    # An --out file that cannot be written.
    ("moments", "--catalog", "cat", "--m", "4", "--max-degree", "4", "--out", "{nodir}/m.csv"),
    ("kl", "--catalog", "cat", "--m", "2", "--scale", "2", "--out", "{nodir}/kl.csv"),
    ("bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "1:1.2:2", "--out", "{nodir}/b.csv"),
], ids=" ".join)
def test_rejected_input_leaves_stdout_empty(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing.json", nodir=tmp_path / "missing") for a in argv]
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_dim_budget_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("CUBACODE_DIM_BUDGET", value)
    status, out, err = run_cli(capsys, "stab", "--catalog", "cat", "--m", "2", "--scale", "1",
                               "--cutoff", "40")
    assert status == 2
    assert out == ""
    assert err == f"error: CUBACODE_DIM_BUDGET must be a positive integer, got {value!r}\n"


def test_stab_over_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CUBACODE_DIM_BUDGET", "30")
    status, out, err = run_cli(capsys, "stab", "--catalog", "cat", "--m", "2", "--scale", "1",
                               "--cutoff", "40")
    assert status == 2
    assert out == ""
    assert err.startswith("error: dimension 40 exceeds budget 30")


@pytest.mark.parametrize("text, field", [
    ('{"polynomials":[{"terms":[{"re":1}]}]}', "$.polynomials[0].terms[0].u: missing"),
    ('{"polynomials":[{"terms":[{"u":[2],"re":"x"}]}]}',
     "$.polynomials[0].terms[0].re: expected a number"),
    ('{"polynomials":[3]}', "$.polynomials[0]: expected an object"),
    ("[1", "$: invalid JSON"),
])
def test_malformed_poly_file_exits_2(text, field, tmp_path, capsys):
    path = tmp_path / "polys.json"
    path.write_text(text)
    status, out, err = run_cli(capsys, "stab", "--catalog", "cat", "--m", "2", "--scale", "1",
                               "--cutoff", "30", "--poly-file", str(path))
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: {field}") and "Traceback" not in err


def test_commands_in_one_process_print_what_they_print_alone(tmp_path, capsys, fresh_python):
    commands = [
        ("bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "0.8,2.0", "--jobs", "1"),
        ("params", "--catalog", "twoshell_24cell", "--tau", "2", "--normalize", "1"),
        ("kl", "--catalog", "cat", "--m", "4", "--scale", "2.5", "--out", str(tmp_path / "kl.csv")),
    ]
    together = []
    for argv in commands:
        status, out, err = run_cli(capsys, *argv)
        assert status == 0, err
        together.append(out)
    assert build_parser() is build_parser()
    for argv, out in zip(commands, together):
        alone = fresh_python("-m", "cubacode.cli", *argv)
        assert alone.returncode == 0, alone.stderr
        assert alone.stdout == out


def test_header_reports_options(capsys):
    status, out, _ = run_cli(
        capsys, "params", "--catalog", "cat", "--m", "2", "--ceiling", "6"
    )
    assert status == 0
    assert "# ceiling = 6" in out
    assert "# tol = 1e-09" in out


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, capsys):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    status, _, err = run_cli(capsys, *argv)
    assert status == 0, err
