import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cubacode import build_catalog_code, normalize_energy, save_code, scale_code
from cubacode.cli import _parse_grid, build_parser, main
from conftest import codeword_gram


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


@pytest.mark.parametrize("shells", [None, [0.0, 1.0]], ids=["undeclared", "declared"])
def test_show_and_bounds_read_the_shells_from_the_points(shells, tmp_path, capsys):
    # Radon's 7-point degree-5 formula in the plane: the origin at weight
    # 1/4 and the unit hexagon at 1/8 each.  The origin and the hexagon are
    # two shells whether or not the file declares them, and the origin is a
    # node: Moller's odd-degree bound 2 dim P*_2 - 1 = 7 is attained.
    hexagon = [{"point": [[np.cos(np.pi * j / 3), np.sin(np.pi * j / 3)]], "weight": 0.125}
               for j in range(6)]
    doc = {"name": "radon7", "modes": 1, "claimed_degree": 5,
           "logicals": [[{"point": [[0.0, 0.0]], "weight": 0.25}] + hexagon]}
    if shells is not None:
        doc["shells"] = shells
    path = tmp_path / "radon7.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, out, _ = run_cli(capsys, "show", "--code-file", str(path))
    assert status == 0
    assert out.splitlines()[:2] == ["radon7: 1 modes, 1 codewords, 7 points each, 2 shells",
                                    "  shell radii: 0, 1"]
    status, out, _ = run_cli(capsys, "bounds", "--code-file", str(path))
    assert status == 0
    assert out.splitlines()[1:] == [
        "logical 0: 7 points, degree 5 on space(2) (conservative: multi-shell support widened "
        "to full space)",
        "  lower bound 6, odd-degree lower bound 7, upper bound 21, tight: True",
    ]


def test_requires_exactly_one_source(tmp_path, capsys):
    # Every command that takes a code; show used to look up the catalog
    # code None.
    path = tmp_path / "code.json"
    save_code(build_catalog_code("qsc8"), str(path))
    for command in [("show",), ("params",), ("moments",), ("bounds",), ("kl",), ("stab",),
                    ("bench", "sweep-alpha"), ("bench", "sweep-gamma")]:
        for sources in ((), ("--catalog", "qsc8", "--code-file", str(path))):
            status, out, err = run_cli(capsys, *command, *sources)
            assert (status, out) == (2, ""), command
            assert err == ("error: give exactly one code source: --catalog NAME or "
                           "--code-file PATH\n"), command


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
    # Neither the report nor its --out CSV builds it: the rows come from
    # report.blocks.
    import cubacode.klcheck as klcheck

    reports, kl_report = [], klcheck.kl_report
    monkeypatch.setattr(klcheck, "kl_report",
                        lambda *args, **kwargs: reports.append(kl_report(*args, **kwargs)) or reports[-1])
    argv = ["kl", "--catalog", "cat", "--m", "2", "--scale", "2.5", "--max-loss", "1"]
    assert run_cli(capsys, *argv)[0] == 0
    assert "matrices" not in vars(reports[-1])
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "kl.csv"))[0] == 0
    assert "matrices" not in vars(reports[-1])


@pytest.mark.parametrize("name, params", [
    ("cube_orthoplex", {"D": 4}),  # two modes: graded and lexicographic order differ
    ("cell16_qutrit", {}),  # three codewords
])
def test_kl_csv_is_the_block_dict(name, params, tmp_path, capsys):
    from cubacode.klcheck import kl_report

    out = tmp_path / "kl.csv"
    flags = [f"--{key}={value}" for key, value in params.items()]
    status, _, err = run_cli(capsys, "kl", "--catalog", name, *flags, "--scale", "2.5",
                             "--max-loss", "2", "--out", str(out))
    assert status == 0, err
    report = kl_report(build_catalog_code(name, params), max_loss=2, scale=2.5)
    lines = ["q_mu,q_nu,k,l,re,im"]
    for (mu, nu), block in sorted(report.matrices.items()):
        for (k, l), z in np.ndenumerate(block):
            lines.append(",".join([" ".join(map(str, mu)), " ".join(map(str, nu)), str(k), str(l),
                                   format(z.real, ".12g"), format(z.imag, ".12g")]))
    assert out.read_bytes() == "".join(line + "\n" for line in lines).encode()


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


@pytest.mark.parametrize("argv, scale", [
    (("sweep-alpha", "--catalog", "qsc8", "--grid", "270"), "270"),
    (("sweep-alpha", "--catalog", "qsc8", "--grid", "1e5"), "100000"),
    (("sweep-alpha", "--catalog", "qsc8", "--grid", "1e10"), "1e+10"),
    (("sweep-alpha", "--catalog", "qsc8", "--grid", "1e200"), "1e+200"),
    (("sweep-gamma", "--catalog", "qsc8", "--alpha-op", "1e300"), "1e+300"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_bench_rejects_a_scale_whose_loss_series_is_too_long(argv, scale, capsys):
    # qsc8 at nbar = 1 needs about 0.9 scale^2 series terms: past the term
    # cap (about scale 264), whose length overflowed an int or the float
    # range at 1e10 and above, the scale is named and rejected.
    status, out, err = run_cli(capsys, "bench", *argv)
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: scale {scale} is too large") and "terms" in err
    assert len(err.splitlines()) == 1


def test_bench_runs_up_to_the_loss_series_cap(capsys):
    status, out, _ = run_cli(capsys, "bench", "sweep-alpha", "--catalog", "qsc8", "--grid", "260")
    assert status == 0
    assert out.splitlines()[-1].startswith("qsc8,0.1,260,")


@pytest.mark.parametrize("name", ["qsc8", "qcc8"])
def test_points_too_large_for_doubles_exit_2(name, capsys):
    # Normalized to nbar = 1e308, squared distances overflow (the pair scan
    # raised a ValueError on an empty reduction).
    status, out, err = run_cli(capsys, "params", "--catalog", name, "--normalize", "1e308")
    assert status == 2
    assert out == ""
    assert err.startswith("error: constellation points are too large")
    assert len(err.splitlines()) == 1


def test_large_amplitude_catalog_code_runs(capsys):
    # Norms near 1e8 round by more than the absolute 1e-9 that the shell
    # match once allowed.
    status, out, _ = run_cli(capsys, "params", "--catalog", "qsc8", "--normalize", "1e16")
    assert status == 0
    assert out.splitlines()[-1].endswith("<8,8,8> ))")


@pytest.mark.parametrize("command", [
    ("bench", "sweep-alpha", "--grid", "1"),
    ("params", "--normalize", "1"),
], ids=" ".join)
def test_large_amplitude_code_file_runs_like_the_catalog_code(command, tmp_path, capsys):
    # qcc8 times 1e4: its codewords' mean photon numbers are one ulp apart.
    path = tmp_path / "qcc8x1e4.json"
    save_code(scale_code(build_catalog_code("qcc8"), 1e4), path)
    status, from_file, _ = run_cli(capsys, *command, "--code-file", str(path))
    assert status == 0
    status, from_catalog, _ = run_cli(capsys, *command, "--catalog", "qcc8")
    assert status == 0
    assert from_file.replace(path.name, "qcc8") == from_catalog


@pytest.mark.parametrize("argv, count", [
    (("--catalog", "hypercube", "--D", "30"), "2^30 points"),
    (("--catalog", "hypercube", "--D", "1000000000"), "2^1000000000 points"),
    (("--catalog", "orthoplex", "--D", "1000000000"), "2000000000 points"),
    (("--catalog", "cube_orthoplex", "--D", "40"), "2^40 + 80 points"),
    (("--catalog", "cat", "--m", "100000000"), "100000000 points"),
    (("--catalog", "polygon_shells", "--m", "4", "--p", "3", "--radii", "1,2,3",
      "--K", "100000000"), "1200000000 points"),
    (("--catalog", "twoshell_24cell", "--tau", "2", "--K", "100000000"), "4800000000 points"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_oversized_catalog_request_exits_2(argv, count, capsys):
    status, out, err = run_cli(capsys, "show", *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error:") and count in err and "cap of 65536" in err
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


def test_bench_csvs_are_the_library_rows(tmp_path, capsys):
    from cubacode import bench
    from cubacode.codefile import load_code

    def cells(*values):
        return [format(float(x), ".12g") for x in values]

    # A '%' in the label is printed as it is, never read as a format.
    path = tmp_path / "50%.json"
    save_code(build_catalog_code("qsc8"), str(path))
    out = tmp_path / "sweep.csv"
    status, _, err = run_cli(capsys, "bench", "sweep-alpha", "--code-file", str(path),
                             "--gamma", "0.1", "--grid", "1,1.5,2", "--out", str(out))
    assert status == 0, err
    points = bench.sweep_alpha(bench.normalized(load_code(str(path))), 0.1, [1.0, 1.5, 2.0])
    lines = ["code,gamma,scale,nbar,fidelity,infidelity,cutoff,tail_mass,kraus_lmax"] + [
        ",".join(["50%.json", *cells(p.gamma, p.scale, p.nbar, p.fidelity, 1.0 - p.fidelity),
                  "0", "0", "0"])
        for p in points
    ]
    assert out.read_bytes() == "".join(line + "\n" for line in lines).encode()

    out = tmp_path / "pair.csv"
    status, _, err = run_cli(capsys, "bench", "pair", "--qcc", "qcc8", "--qsc", "qsc8",
                             "--gammas", "0.05,0.1", "--grid", "1,1.5,2,2.5", "--out", str(out))
    assert status == 0, err
    _, _, rows = bench.pair_bench(bench.normalized(build_catalog_code("qcc8")),
                                  bench.normalized(build_catalog_code("qsc8")),
                                  [0.05, 0.1], grid=[1.0, 1.5, 2.0, 2.5])
    lines = ["gamma,f_qsc,f_qcc,r_infidelity"] + [
        ",".join(cells(r.gamma, r.f_single, r.f_multi, r.r_infidelity)) for r in rows
    ]
    assert out.read_bytes() == "".join(line + "\n" for line in lines).encode()


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


def test_stab_over_byte_cap_exits_2(capsys):
    # 10^8 levels: 1.6 GB per codeword vector, refused before it is built.
    status, out, err = run_cli(capsys, "stab", "--catalog", "cat", "--m", "2", "--scale", "1",
                               "--cutoff", "100000000")
    assert status == 2
    assert out == ""
    assert err == ("error: the Z-check at cutoff 100000000 needs 40000000032 bytes, "
                   "more than its cap of 268435456\n")


def test_stab_over_byte_cap_derives_no_generator(capsys, monkeypatch):
    # The generator search is O(points^2): --m 8000 took about 3 s before
    # the same refusal when it ran first.
    import cubacode.stabilizer as stabilizer

    def refuse(code):
        raise AssertionError("the generators were derived for a refused cutoff")

    monkeypatch.setattr(stabilizer, "ztype_polynomials", refuse)
    status, out, err = run_cli(capsys, "stab", "--catalog", "cat", "--m", "8000", "--scale", "1",
                               "--cutoff", "100000000")
    assert status == 2
    assert out == ""
    assert err.startswith("error: the Z-check at cutoff 100000000 needs ")


@pytest.mark.parametrize("count, shown", [("1e9", "1000000000"), ("1e300", "1e+300"),
                                          ("65537", "65537")])
def test_grid_over_point_cap_exits_2(count, shown, capsys):
    status, out, err = run_cli(capsys, "bench", "sweep-alpha", "--catalog", "qsc8",
                               "--grid", f"1:2:{count}")
    assert status == 2
    assert out == ""
    assert err == f"error: --grid: {shown} points, more than the cap of 65536\n"


def test_grid_at_point_cap_is_accepted():
    grid = _parse_grid("1:2:65536")
    assert len(grid) == 65536 and grid[0] == 1.0 and grid[-1] == 2.0


@pytest.mark.parametrize("K", ["1", "2", "3"])
def test_twoshell_24cell_at_tau_one_exits_2(K, capsys):
    # At tau = 1 codeword 1 of K = 2 is the base turned by pi/4, the base itself.
    status, out, err = run_cli(capsys, "params", "--catalog", "twoshell_24cell", "--tau", "1",
                               "--K", K)
    assert status == 2
    assert out == ""
    assert err.startswith("error: twoshell_24cell needs tau != 1")


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


def assert_one_error_line(status, out, err):
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    # The first shell's weight 1/r_1^m overflows: every weight read nan.
    ("show", "--catalog", "polygon_shells", "--m", "200", "--p", "2", "--radii", "0.01,1"),
    ("params", "--catalog", "polygon_shells", "--m", "200", "--p", "2", "--radii", "0.01,1"),
    # The weight ratios (r1/r2)^4 and (1/tau)^6 overflow a double.
    ("show", "--catalog", "twoshell_8_16", "--r1", "1e100", "--r2", "1e-10"),
    ("show", "--catalog", "twoshell_24cell", "--tau", "1e-60"),
], ids=" ".join)
def test_weight_rule_out_of_range_exits_2(argv, capsys):
    status, out, err = run_cli(capsys, *argv)
    assert_one_error_line(status, out, err)
    assert "leave the range of a double" in err


BIG = "1" + "0" * 400  # 10^400: a JSON integer beyond the doubles
DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("doc, field", [
    ('{"name":"x","modes":1,"logicals":[[{"point":[[%s,0]],"weight":1}]]}' % BIG,
     "$.logicals[0][0].point[0]: expected a finite number"),
    ('{"name":"x","modes":1,"logicals":%s}' % DEEP, "$: invalid JSON (nested too deeply)"),
    # More digits than Python converts to an int.
    ('{"name":"x","modes":1,"claimed_degree":%s,"logicals":[]}' % ("1" * 5000),
     "$: invalid JSON"),
], ids=["huge-coordinate", "deep", "long-integer"])
def test_code_file_out_of_range_exits_2(doc, field, tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(doc)
    status, out, err = run_cli(capsys, "show", "--code-file", str(path))
    assert_one_error_line(status, out, err)
    assert err.startswith(f"error: {field}")


@pytest.mark.parametrize("text, field", [
    ('{"polynomials":[{"terms":[{"u":[4],"re":%s},{"u":[0],"re":-1}]}]}' % BIG,
     "$.polynomials[0].terms[0].re: expected a finite number"),
    ('{"polynomials":%s}' % DEEP, "$: invalid JSON (nested too deeply)"),
    ('{"polynomials":[{"terms":[{"u":[%s],"re":1},{"u":[0],"re":-1}]}]}' % BIG,
     "$.polynomials[0]: exponents must be below the cap of 16777216"),
    ('{"polynomials":[{"terms":[{"u":[4],"re":NaN},{"u":[0],"re":-1}]}]}',
     "$.polynomials[0].terms[0].re: expected a finite number"),
    ('{"polynomials":[{"terms":[{"u":[4],"re":1},{"u":[0],"im":-Infinity}]}]}',
     "$.polynomials[0].terms[1].im: expected a finite number"),
], ids=["huge-coefficient", "deep", "huge-exponent", "nan", "infinity"])
def test_poly_file_out_of_range_exits_2(text, field, tmp_path, capsys):
    path = tmp_path / "polys.json"
    path.write_text(text)
    status, out, err = run_cli(capsys, "stab", "--catalog", "qsc8", "--poly-file", str(path))
    assert_one_error_line(status, out, err)
    assert err.startswith(f"error: {field}")


def refuse(*args, **kwargs):
    raise AssertionError("the work behind a refused count was started")


@pytest.mark.parametrize("argv, worker, message", [
    (("kl", "--catalog", "qsc8", "--max-loss", BIG), ("klcheck", "_raw_blocks"),
     "error: max_loss needs over 2^2659 block entries, more than the cap of 4194304\n"),
    # 10^11: _index_box would build its levels one at a time until killed.
    (("moments", "--catalog", "qsc8", "--max-degree", "100000000000"), ("moments", "_index_box"),
     "error: the maximum degree needs over 2^72 moment pairs (p, q), more than the cap of "
     "1048576\n"),
    # C(2 + 1447, 2) = 1049076 pairs, the first degree over the cap on one mode.
    (("moments", "--catalog", "qsc8", "--max-degree", "1447"), ("moments", "_index_box"),
     "error: the maximum degree needs 1049076 moment pairs (p, q), more than the cap of "
     "1048576\n"),
    (("bounds", "--catalog", "polygon_shells", "--m", "6", "--p", "2", "--radii", "1,2",
      "--degree", "1" + "0" * 399 + "1"), ("moments", "_dim_hom_star_space"),
     "error: degree over 2^1328 is above the cap of 1048576\n"),
    (("bounds", "--catalog", "polygon_shells", "--m", "6", "--p", "2", "--radii", "1,2",
      "--degree", "10000001"), ("moments", "_dim_hom_star_space"),
     "error: degree 10000001 is above the cap of 1048576\n"),
], ids=["kl", "moments", "moments-first-over", "bounds", "bounds-1e7"])
def test_integer_option_over_its_cap_exits_2_before_the_work(argv, worker, message, capsys,
                                                            monkeypatch):
    import importlib

    monkeypatch.setattr(importlib.import_module(f"cubacode.{worker[0]}"), worker[1], refuse)
    status, out, err = run_cli(capsys, *argv)
    assert_one_error_line(status, out, err)
    assert err == message


# Two codewords, each {1, -1} at weight 1/2: every moment matches, so the
# parameter search runs to its ceiling.
TWIN = {"name": "twin", "modes": 1,
        "logicals": [[{"point": [[1.0, 0.0]], "weight": 0.5},
                      {"point": [[-1.0, 0.0]], "weight": 0.5}]] * 2}
# TWIN's two codewords and a third, {i, -i}: the moments of degree 2 differ,
# so params used to print <2,2,2> and moments a match degree of 1, both
# with exit 0.
TWIN3 = {"name": "twin3", "modes": 1,
         "logicals": TWIN["logicals"] + [[{"point": [[0.0, 1.0]], "weight": 0.5},
                                          {"point": [[0.0, -1.0]], "weight": 0.5}]]}


def test_params_ceiling_over_its_cap_exits_2_before_the_search(tmp_path, capsys, monkeypatch):
    import cubacode.klcheck as klcheck

    monkeypatch.setattr(klcheck, "_BoxMoments", refuse)
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(TWIN))
    status, out, err = run_cli(capsys, "params", "--code-file", str(path),
                               "--ceiling", "100000000000")
    assert_one_error_line(status, out, err)
    assert err == ("error: search ceiling 100000000000 needs over 2^81 moment evaluations on "
                   "a 1-mode code, more than the cap of 67108864\n")


def test_params_counts_the_t_down_box(capsys, monkeypatch):
    import cubacode.klcheck as klcheck

    # cube_orthoplex --D 8 at ceiling 30: 38,912,148 evaluations up front, and
    # d_updown = 6 adds the box levels 3..6, 27,846 more.
    argv = ("params", "--catalog", "cube_orthoplex", "--D", "8", "--ceiling", "30")
    monkeypatch.setattr(klcheck, "_MAX_SEARCH_WORK", 38912148 + 27846 - 1)
    status, out, err = run_cli(capsys, *argv)
    assert_one_error_line(status, out, err)
    assert err == ("error: search ceiling 30 needs 38939994 moment evaluations on a 4-mode code, "
                   "more than the cap of 38939993\n")
    monkeypatch.undo()
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    assert out.splitlines()[-1] == "(( 4, 2, 0.5, <5,6,12> ))"


def codeword(*points, weights=None):
    """A code-file codeword of one-mode points given as complex numbers."""
    weights = weights or [1.0 / len(points)] * len(points)
    return [{"point": [[z.real, z.imag]], "weight": w} for z, w in zip(points, weights)]


# The commands that refuse a code with coinciding codewords (bench pair
# takes only catalog aliases).
TWIN_COMMANDS = [("params",), ("moments",), ("kl",), ("bench", "sweep-alpha", "--grid", "1,2"),
                 ("bench", "sweep-gamma")]


@pytest.mark.parametrize("command", TWIN_COMMANDS)
def test_coinciding_codewords_exit_2(command, tmp_path, capsys):
    # Every moment of TWIN matches: params used to print <14,14,14> and
    # moments a largest deviation of 0, both with exit 0; kl and bench
    # exited 1 on the singular codeword Gram.
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(TWIN))
    status, out, err = run_cli(capsys, *command, "--code-file", str(path))
    assert_one_error_line(status, out, err)
    assert err == ("error: codewords 0 and 1 are the same weighted point set: the code "
                   "encodes nothing\n")


@pytest.mark.parametrize("command", TWIN_COMMANDS,
                         ids=["params", "moments", "kl", "bench-sweep-alpha", "bench-sweep-gamma"])
def test_coinciding_codewords_among_three_exit_2(command, tmp_path, capsys):
    path = tmp_path / "twin3.json"
    path.write_text(json.dumps(TWIN3))
    status, out, err = run_cli(capsys, *command, "--code-file", str(path))
    assert_one_error_line(status, out, err)
    assert err == ("error: codewords 0 and 1 are the same weighted point set: the code "
                   "encodes nothing\n")


def test_coinciding_codewords_are_named(tmp_path, capsys):
    # Codewords 1 and 2 hold the same points in another order, with weights
    # off by far less than GEOM_TOL; a loose --tol lets params reach the ceiling.
    doc = {"name": "three", "modes": 1, "logicals": [
        codeword(1, -1),
        codeword(1j, -1j),
        codeword(-1j, 1j + 1e-12, weights=[0.5 + 1e-13, 0.5 - 1e-13]),
    ]}
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, "params", "--code-file", str(path), "--tol", "10")
    assert_one_error_line(status, out, err)
    assert err.startswith("error: codewords 1 and 2 are the same weighted point set")


@pytest.mark.parametrize("command, logicals", [
    # Two shared points of three, and every moment within the loose --tol.
    (("params", "--tol", "10"), [codeword(1, -1, 1j), codeword(1, -1, -1j)]),
    # The same points at other weights.
    (("params", "--tol", "10"), [codeword(1, -1), codeword(1, -1, weights=[0.25, 0.75])]),
    # Every moment of degree <= 1 is 0 or 1 on both codewords.
    (("moments", "--max-degree", "1"), [codeword(1, -1), codeword(1j, -1j)]),
], ids=["params-shared-points", "params-other-weights", "moments-degree-1"])
def test_codes_matching_to_the_end_with_distinct_codewords_exit_0(command, logicals, tmp_path,
                                                                  capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"name": "pair", "modes": 1, "logicals": logicals}))
    status, out, err = run_cli(capsys, command[0], "--code-file", str(path), *command[1:])
    assert status == 0, err
    assert "<14,14,14>" in out if command[0] == "params" else "largest deviation 0 " in out


@pytest.mark.parametrize("command", ["params", "moments"])
def test_codewords_sharing_some_points_exit_0(command, tmp_path, capsys):
    # Codeword 2 shares a point with each of the others.
    doc = {"name": "three", "modes": 1,
           "logicals": [codeword(1, -1), codeword(1j, -1j), codeword(1, 1j)]}
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, command, "--code-file", str(path))
    assert status == 0, err
    assert err == ""


@pytest.mark.parametrize("argv, degree", [
    # Degree-k moments grow like radius^k: past a double they read inf or
    # nan, and nan > tol is false, so they used to count as matching.
    (("params", "--catalog", "cat", "--m", "8", "--radius", "1e40"), 8),
    # The d_updown search stops below 16; the t_down box reaches it.
    (("params", "--catalog", "cat", "--m", "8", "--radius", "1e20"), 16),
    (("moments", "--catalog", "cat", "--m", "8", "--radius", "1e40", "--max-degree", "8"), 8),
], ids=["params-1e40", "params-1e20", "moments-1e40"])
def test_moments_past_a_double_exit_2_naming_the_degree(argv, degree, capsys):
    status, out, err = run_cli(capsys, *argv)
    assert_one_error_line(status, out, err)
    assert err.startswith(f"error: the moments of degree {degree} are not finite")


def test_params_checks_only_the_moments_its_search_reaches(capsys):
    # At radius 1e5 the moments of degree 62 and up overflow, and a search
    # to the ceiling would reach degree 398; this one stops at degree 16.
    status, out, err = run_cli(capsys, "params", "--catalog", "cat", "--m", "8", "--radius",
                               "1e5", "--ceiling", "200")
    assert status == 0, err
    assert "<8,8,8>" in out


def test_bounds_degree_from_a_code_file_is_capped(tmp_path, capsys, monkeypatch):
    import cubacode.moments as moments

    monkeypatch.setattr(moments, "_dim_hom_star_space", refuse)
    doc = {"name": "pair", "modes": 1, "claimed_degree": 2**20 + 1,
           "logicals": [[{"point": [[1.0, 0.0]], "weight": 0.5},
                         {"point": [[-1.0, 0.0]], "weight": 0.5}]]}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, "bounds", "--code-file", str(path))
    assert_one_error_line(status, out, err)
    assert err == "error: degree 1048577 is above the cap of 1048576\n"


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
