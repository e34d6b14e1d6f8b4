import numpy as np
import pytest

from cubacode import (
    FockSpace,
    Rotation,
    ValidationError,
    build_catalog_code,
    cat_code,
    coherent_fock,
    encode,
    polygon_shell_code,
    scale_code,
    verify_xtype,
    verify_ztype,
    ztype_polynomials,
)
from cubacode.stabilizer import AnnihilationPolynomial, ztype_residual_states


# ---------------------------------------------------------------------------
# Generator construction
# ---------------------------------------------------------------------------


def test_cat_generator_is_quartic():
    code = cat_code(2, 2)
    polys = ztype_polynomials(code)
    assert len(polys) == 1
    poly = polys[0]
    assert poly.degree() == 4
    # Vanishes on the fourth roots of unity (all four code points).
    vals = poly.evaluate(code.all_points())
    assert np.abs(vals).max() < 1e-10


def test_hexagon_generator_vanishes_on_all_24_points():
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    polys = ztype_polynomials(code)
    pts = code.all_points()
    assert pts.shape[0] == 24
    for poly in polys:
        assert np.abs(poly.evaluate(pts)).max() < 1e-10


def test_generator_zero_set_is_sharp():
    # Radially perturbed points must NOT be in the zero set.
    code = cat_code(2, 2)
    poly = ztype_polynomials(code)[0]
    perturbed = code.all_points() * 1.1
    assert np.abs(poly.evaluate(perturbed)).min() > 1e-3


def test_no_generator_rule_for_polytope_codes():
    with pytest.raises(ValidationError, match="no generator rule"):
        ztype_polynomials(build_catalog_code("cell16_qutrit"))


def test_polynomial_coefficients_normalized():
    code = scale_code(cat_code(12, 2), 2.0)
    poly = ztype_polynomials(code)[0]
    assert max(abs(c) for _, c in poly.terms) == pytest.approx(1.0)
    assert poly.degree() == 24


# ---------------------------------------------------------------------------
# Z-type residuals
# ---------------------------------------------------------------------------


def test_cat_ztype_residual_small():
    assert verify_ztype(cat_code(2, 2), 2.0, FockSpace(1, 64)) < 1e-8


def test_twelve_gon_ztype_residual_small():
    assert verify_ztype(cat_code(12, 2), 2.0, FockSpace(1, 80)) < 1e-8


def test_wrong_polynomial_is_detected():
    # Drop one root from the quartic: the zero set misses a code point.
    code = cat_code(2, 2)
    scaled = scale_code(code, 2.0)
    wrong = AnnihilationPolynomial.from_dict(
        {(3,): 1.0, (2,): 2.0, (1,): 4.0, (0,): 8.0}, modes=1
    ).normalized()  # (a + 2)(a^2 + 4): vanishes on -2, +-2i but not +2
    residual = verify_ztype(code, 2.0, FockSpace(1, 64), polys=[wrong])
    assert residual > 1e-2


def test_ztype_residual_shrinks_with_cutoff():
    code = cat_code(12, 2)
    with pytest.warns(UserWarning, match="strained"):
        r40 = verify_ztype(code, 2.0, FockSpace(1, 40))
    r60 = verify_ztype(code, 2.0, FockSpace(1, 60))
    assert r60 < r40


# ---------------------------------------------------------------------------
# X-type residuals
# ---------------------------------------------------------------------------


def test_cat_parity_invariance():
    residual = verify_xtype(cat_code(2, 2), Rotation.global_phase(1, np.pi), 2.0, FockSpace(1, 64))
    assert residual < 1e-10


def test_twelve_gon_rotation_invariance():
    code = cat_code(12, 2)
    rot = Rotation.global_phase(1, 2 * np.pi / 12)
    assert verify_xtype(code, rot, 2.0, FockSpace(1, 80)) < 1e-10


def test_half_step_rotation_rejected():
    code = cat_code(12, 2)
    rot = Rotation.global_phase(1, 2 * np.pi / 24)
    with pytest.raises(ValidationError, match="does not preserve"):
        verify_xtype(code, rot, 2.0, FockSpace(1, 80))


def test_non_passive_symmetry_rejected():
    code = cat_code(2, 2)
    conj = Rotation(np.diag([1.0, -1.0]))  # complex conjugation: not passive
    with pytest.raises(ValidationError, match="passive"):
        verify_xtype(code, conj, 2.0, FockSpace(1, 40))


def test_mode_swap_symmetry_analytic_path():
    # The 24-cell constellation is invariant under swapping the two modes;
    # the swap is passive but not diagonal, exercising the analytic check.
    code = build_catalog_code("cube_orthoplex", {"D": 4})
    swap = Rotation.from_complex_unitary(np.array([[0, 1], [1, 0]], dtype=complex))
    assert verify_xtype(code, swap, 1.5, FockSpace(2, 24)) < 1e-10


# ---------------------------------------------------------------------------
# Strict containment for multi-shell codes
# ---------------------------------------------------------------------------


def test_multi_shell_stabilized_space_is_larger():
    """A shell-amplitude-perturbed state passes every Z- and X-type check yet
    lies far outside the code space."""
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    scale = 1.5
    space = FockSpace(1, 80)
    scaled = scale_code(code, scale)
    polys = ztype_polynomials(scaled)

    shell1 = np.zeros(space.dim, dtype=complex)
    shell2 = np.zeros(space.dim, dtype=complex)
    c0 = code.logicals[0]
    radii = c0.radii()
    for pt, r in zip(c0.points, radii):
        target = shell1 if np.isclose(r, 1.0) else shell2
        target += coherent_fock(scale * pt, space).amplitudes
    v = encode(code, scale, space)
    codeword = v[:, 0]

    # Orthogonalize the outer-shell component against the codeword while
    # staying inside the span of the two shell sums.
    psi = shell2 - codeword * np.vdot(codeword, shell2)
    psi /= np.linalg.norm(psi)

    z_res = ztype_residual_states(polys, [psi], space)
    assert z_res < 1e-8

    # Exact rotation by one polygon step leaves each shell sum invariant.
    levels = np.arange(space.dim)
    u_diag = np.exp(1j * (2 * np.pi / 6) * levels)
    assert np.linalg.norm(u_diag * psi - psi) < 1e-10

    # ... but the state is far from the code space.
    proj = v @ (v.conj().T @ psi)
    outside = np.linalg.norm(psi - proj)
    assert outside > 1e-3
    assert outside > 0.5  # essentially orthogonal at this scale
