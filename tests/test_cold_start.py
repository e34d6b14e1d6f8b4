"""Cold start: ``import cubacode`` and each command load only the submodules
they use.  Every check runs in a fresh interpreter, because this test
process has imported every submodule long before these tests run."""

import json

import pytest

# The package root's public names by defining submodule.
PUBLIC = {
    "catalog": [
        "BENCH_ALIASES", "CATALOG", "build_catalog_code", "cat_code", "cell8_cell16_qubit_code",
        "cell16_qutrit_code", "cube_orthoplex_code", "describe", "hypercube_code",
        "orthoplex_code", "polygon_shell_code", "two_shell_24cell_code", "two_shell_cell_code",
    ],
    "codefile": ["CodeFileError", "load_code", "save_code"],
    "constellation": [
        "CodeSpec", "Rotation", "RotationFamily", "WeightedConstellation",
        "apply_rotation", "embed_complex_to_real", "embed_real_to_complex",
        "global_phase_family", "mean_photon_number", "mode_phase_family", "normalize_energy",
        "optimize_codeword_rotation", "plane_rotation_family", "resolution", "rotate_code",
        "scale_code",
    ],
    "errors": ["DegenerateCodewordsError", "NumericalFailure", "ValidationError"],
    "klcheck": [
        "KLReport", "LossFidelity", "ParamTriple", "code_parameters", "coherent_overlap",
        "kl_report", "ladder_matrix_element", "loss_fidelity",
    ],
    "moments": [
        "BoundsReport", "code_size_bounds", "is_spherical_design", "moment_match_degree",
        "size_bounds", "sphere_monomial_integral", "weighted_moment",
    ],
    "stabilizer": ["AnnihilationPolynomial", "verify_xtype", "verify_ztype", "ztype_polynomials"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
# Submodules that only some commands need.
COMMAND_MODULES = {"bench", "klcheck", "moments", "stabilizer", "codefile"}

# Prints, as the last line of output, the loaded cubacode submodules.
_LOADED = ("import json, sys\n"
           "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules"
           " if m.startswith('cubacode.'))))")


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(fresh_python, code: str) -> set:
    return set(_last_json(fresh_python("-c", f"{code}\n{_LOADED}")))


def test_bare_import_loads_no_submodule(fresh_python):
    assert _loaded_after(fresh_python, "import cubacode") == set()


def test_setup_names_load_only_their_modules(fresh_python):
    loaded = _loaded_after(fresh_python, "from cubacode import build_catalog_code, normalize_energy")
    assert loaded == {"catalog", "constellation", "errors"}


def test_every_public_name_is_its_submodules_object(fresh_python):
    code = ("import importlib, json, cubacode\n"
            f"public = {PUBLIC!r}\n"
            "print(json.dumps([n for m, names in public.items() for n in names if getattr(cubacode, n)"
            " is not getattr(importlib.import_module('cubacode.' + m), n)]))")
    assert _last_json(fresh_python("-c", code)) == []


def test_star_import_and_dir_list_the_public_names(fresh_python):
    code = ("import json, cubacode\n"
            "ns = {}\n"
            "exec('from cubacode import *', ns)\n"
            "print(json.dumps([sorted(set(ns) - {'__builtins__'}), dir(cubacode)]))")
    star, listed = _last_json(fresh_python("-c", code))
    assert star == NAMES
    assert listed == NAMES


def test_unknown_name_raises_attribute_error(fresh_python):
    code = ("import json, cubacode\n"
            "try:\n"
            "    cubacode.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps(str(exc)))")
    assert "no_such_name" in _last_json(fresh_python("-c", code))


def test_submodule_resolves_after_bare_import(fresh_python):
    code = ("import json, cubacode\n"
            "print(json.dumps(cubacode.stabilizer.AnnihilationPolynomial.__module__))")
    assert _last_json(fresh_python("-c", code)) == "cubacode.stabilizer"


@pytest.mark.parametrize("argv, needs, skips", [
    (["catalog"], set(), COMMAND_MODULES),
    (["bench", "sweep-gamma", "--catalog", "qsc8", "--alpha-op", "1.6", "--gammas", "0.1",
      "--jobs", "1"], {"bench", "klcheck"}, {"stabilizer", "codefile"}),
    (["stab", "--catalog", "cat", "--m", "2", "--scale", "1", "--cutoff", "40"],
     {"stabilizer", "klcheck", "moments"}, {"bench", "codefile"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_command_loads_only_what_it_runs(fresh_python, argv, needs, skips):
    loaded = _loaded_after(fresh_python, f"from cubacode.cli import main\nassert main({argv!r}) == 0")
    assert needs <= loaded
    assert not loaded & skips


@pytest.mark.parametrize("option, argv", [
    ("--jobs", ["bench", "pair", "--pair", "8", "--jobs", "0"]),
    ("--jobs", ["bench", "sweep-alpha", "--catalog", "qsc8", "--jobs", "-1"]),
    ("--gammas", ["bench", "sweep-gamma", "--catalog", "qsc8", "--alpha-op", "2", "--gammas", ""]),
    ("--gammas", ["bench", "pair", "--pair", "8", "--gammas", ""]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_bench_option_exits_2(fresh_python, option, argv):
    proc = fresh_python("-m", "cubacode.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {option}:") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
