"""Coherent-state bosonic codes from cubature formulas.

Construction of weighted coherent-state constellation codes, closed-form
verification of their error-correction conditions, design-degree and
point-count analysis, and pure-loss channel benchmarking in the span of
the coherent states.

The package is a lazy namespace (PEP 562): ``import cubacode`` loads no
submodule, and each public name or submodule is imported on its first
access, so a process pays only for the modules it uses.  Names are looked
up in their submodule on every access, never copied into this module.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "catalog": (
        "BENCH_ALIASES",
        "CATALOG",
        "build_catalog_code",
        "cat_code",
        "cell8_cell16_qubit_code",
        "cell16_qutrit_code",
        "cube_orthoplex_code",
        "describe",
        "hypercube_code",
        "orthoplex_code",
        "polygon_shell_code",
        "two_shell_24cell_code",
        "two_shell_cell_code",
    ),
    "codefile": ("CodeFileError", "load_code", "save_code"),
    "constellation": (
        "CodeSpec",
        "Rotation",
        "RotationFamily",
        "WeightedConstellation",
        "apply_rotation",
        "embed_complex_to_real",
        "embed_real_to_complex",
        "global_phase_family",
        "mean_photon_number",
        "mode_phase_family",
        "normalize_energy",
        "optimize_codeword_rotation",
        "plane_rotation_family",
        "resolution",
        "rotate_code",
        "scale_code",
    ),
    "errors": ("DegenerateCodewordsError", "NumericalFailure", "ValidationError"),
    "klcheck": (
        "KLReport",
        "LossFidelity",
        "ParamTriple",
        "code_parameters",
        "coherent_overlap",
        "kl_report",
        "ladder_matrix_element",
        "loss_fidelity",
    ),
    "moments": (
        "BoundsReport",
        "code_size_bounds",
        "is_spherical_design",
        "moment_match_degree",
        "size_bounds",
        "sphere_monomial_integral",
        "weighted_moment",
    ),
    "stabilizer": ("AnnihilationPolynomial", "verify_xtype", "verify_ztype", "ztype_polynomials"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"bench", "cli"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
