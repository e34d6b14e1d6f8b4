"""Coherent-state bosonic codes from cubature formulas.

Construction of weighted coherent-state constellation codes, closed-form
verification of their error-correction conditions, design-degree and
point-count analysis, and pure-loss channel benchmarking in the span of
the coherent states (with a truncated-Fock-space reference).
"""

from .catalog import (
    BENCH_ALIASES,
    CATALOG,
    build_catalog_code,
    cat_code,
    cell8_cell16_qubit_code,
    cell16_qutrit_code,
    cube_orthoplex_code,
    describe,
    hypercube_code,
    orthoplex_code,
    polygon_shell_code,
    two_shell_24cell_code,
    two_shell_cell_code,
)
from .codefile import CodeFileError, load_code, save_code
from .constellation import (
    CodeParams,
    CodeSpec,
    Rotation,
    RotationFamily,
    WeightedConstellation,
    apply_rotation,
    embed_complex_to_real,
    embed_real_to_complex,
    global_phase_family,
    mean_photon_number,
    mode_phase_family,
    normalize_energy,
    optimize_codeword_rotation,
    plane_rotation_family,
    resolution,
    rotate_code,
    scale_code,
)
from .errors import (
    CutoffError,
    DegenerateCodewordsError,
    NumericalFailure,
    ValidationError,
)
from .fock import (
    FockOperator,
    FockSpace,
    FockState,
    KrausChannel,
    coherent_fock,
    encode,
    entanglement_fidelity,
    fidelity_details,
    loss_kraus,
    transpose_recovery,
)
from .klcheck import (
    KLReport,
    LossFidelity,
    ParamTriple,
    code_parameters,
    coherent_overlap,
    kl_report,
    ladder_matrix_element,
    loss_fidelity,
)
from .moments import (
    BoundsReport,
    code_size_bounds,
    is_spherical_design,
    moment_match_degree,
    size_bounds,
    sphere_monomial_integral,
    weighted_moment,
)
from .stabilizer import (
    AnnihilationPolynomial,
    verify_xtype,
    verify_ztype,
    ztype_polynomials,
)

__version__ = "0.1.0"
