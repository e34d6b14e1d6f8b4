import json
import tracemalloc
import warnings
from math import lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubacode import (
    CodeSpec,
    Rotation,
    ValidationError,
    build_catalog_code,
    cat_code,
    polygon_shell_code,
    scale_code,
    WeightedConstellation,
    verify_xtype,
    verify_ztype,
    save_code,
    ztype_polynomials,
)
from cubacode.cli import main
from cubacode.codefile import load_code
from cubacode.constellation import GEOM_TOL, _symmetry
from cubacode.errors import NumericalFailure
from cubacode.stabilizer import (
    AnnihilationPolynomial,
    _apply_polynomial,
    _poly_from_roots_in_power,
    _encoded_states,
    _zcheck_bytes,
    coherent_fock,
    ztype_residual_states,
)
from conftest import annihilation


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


def loop_generator(values):
    """The generator search that per-class phases replaced: the least g at
    which the greedy distinct values of alpha^g, to one tolerance GEOM_TOL
    max(1, max |alpha^g|), are as many as the radius classes; None when no
    g <= len(values) is.  That tolerance is absolute once |alpha|^g < 1 and
    too loose on inner shells, so it is right only where it still tells
    the classes' phases apart."""
    def distinct(vals, tol):
        out = []
        for v in vals:
            if not any(abs(v - u) <= tol for u in out):
                out.append(complex(v))
        return out

    classes = len(distinct(np.abs(values).astype(complex), GEOM_TOL))
    for g in range(1, len(values) + 1):
        powered = values**g
        reps = distinct(powered, GEOM_TOL * max(1.0, float(np.abs(powered).max())))
        if len(reps) == classes:
            return _poly_from_roots_in_power(g, reps)
    return None


def relative_residual(poly, values):
    """max |P(alpha)| over the values, each relative to sum_u |c_u alpha^u|."""
    terms = np.array([c * values ** u[0] for u, c in poly.terms])
    return float((np.abs(terms.sum(axis=0)) / np.abs(terms).sum(axis=0)).max())


def one_mode_code(*codewords):
    """A one-mode code of uniformly weighted codewords."""
    return CodeSpec(name="test", logicals=tuple(
        WeightedConstellation(np.asarray(z, dtype=complex)[:, None], np.full(len(z), 1.0 / len(z)))
        for z in codewords))


SINGLE_MODE = [("cat", {"m": m}) for m in (2, 3, 4, 8, 12)] + [
    ("cat", {"m": 5, "K": 3}),
    ("polygon_shells", {"m": 6, "p": 2, "radii": [1.0, 2.0]}),
    ("polygon_shells", {"m": 4, "p": 3, "radii": [1.0, 2.0, 3.0]}),
    ("hypercube", {"D": 2}),
    ("orthoplex", {"D": 2}),
    ("cube_orthoplex", {"D": 2}),
    ("qcc8", {}), ("qsc8", {}), ("qcc12", {}), ("qsc12", {}),
]


@pytest.mark.parametrize("name, params", SINGLE_MODE, ids=lambda v: str(v))
def test_generator_matches_the_loop_on_catalog_codes(name, params):
    code = build_catalog_code(name, params or None)
    assert code.modes == 1
    for scale in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        scaled = scale_code(code, scale)
        (poly,) = ztype_polynomials(scaled)
        assert poly.terms == loop_generator(scaled.all_points()[:, 0]).terms


@st.composite
def polygon_unions(draw):
    """Concentric regular polygons, each turned by its own offset, with the
    points in a drawn order; returns (values, true g)."""
    radii = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
    sides = [draw(st.integers(2, 12)) for _ in radii]
    values = np.concatenate([
        0.25 * r * np.exp(1j * (draw(st.floats(0.0, 2.0 * np.pi)) + 2.0 * np.pi * np.arange(m) / m))
        for r, m in zip(radii, sides)])
    return values[draw(st.permutations(range(len(values))))], lcm(*sides)


@given(polygon_unions())
def test_generator_matches_the_loop_on_polygon_unions(drawn):
    values, g = drawn
    code = one_mode_code(values)
    if g > len(values):
        with pytest.raises(ValidationError, match="no generator rule"):
            ztype_polynomials(code)
        return
    (poly,) = ztype_polynomials(code)
    shells = len(np.unique(np.round(np.abs(values), 6)))
    assert poly.degree() == g * shells
    assert relative_residual(poly, values) < 1e-12
    loop = loop_generator(values)
    if loop is not None and loop.degree() == poly.degree():
        assert poly.terms == loop.terms


def run_stab(capsys, *argv):
    status = main(["stab", *argv])
    out = capsys.readouterr().out
    assert status == 0
    return next(line for line in out.splitlines() if line.startswith("z-type generators"))


@pytest.mark.parametrize("scale, cutoff", [(0.2, 40), (0.3, 40), (0.5, 40), (1.0, 60)])
def test_generator_degree_holds_below_unit_amplitude(scale, cutoff, capsys):
    # One tolerance for every alpha^g is absolute once |alpha|^g < 1: at
    # scale 0.2 the loop took the 24 points as one value at g = 14
    # (0.2^14 = 1.6e-10 < GEOM_TOL), at 0.3 at g = 18.
    code = scale_code(cat_code(12, 2), scale)
    (poly,) = ztype_polynomials(code)
    assert poly.degree() == 24
    assert relative_residual(poly, code.all_points()[:, 0]) < 1e-12
    line = run_stab(capsys, "--catalog", "cat", "--m", "12", "--scale", str(scale),
                    "--cutoff", str(cutoff))
    assert line == "z-type generators: 1 (degrees [24])"


def test_generator_phases_are_compared_per_class(tmp_path, capsys):
    # A 24-gon at radius 1 and an 8-gon at radius 10, codewords
    # interleaved.  Scaled by 10^g, the loop's tolerance let the inner
    # 24-gon pass as one value at g = 16 (degree 32); the true g is 24.
    inner = np.exp(2j * np.pi * np.arange(24) / 24)
    outer = 10.0 * np.exp(2j * np.pi * np.arange(8) / 8)
    code = one_mode_code(np.concatenate([inner[0::2], outer[0::2]]),
                         np.concatenate([inner[1::2], outer[1::2]]))
    values = code.all_points()[:, 0]
    assert loop_generator(values).degree() == 32
    (poly,) = ztype_polynomials(code)
    assert poly.degree() == 48
    assert relative_residual(poly, values) < 1e-12
    path = tmp_path / "two_polygons.json"
    save_code(code, path)
    line = run_stab(capsys, "--code-file", str(path), "--scale", "1", "--cutoff", "300")
    assert line == "z-type generators: 1 (degrees [48])"


# ---------------------------------------------------------------------------
# Z-type residuals
# ---------------------------------------------------------------------------


def test_cat_ztype_residual_small():
    assert verify_ztype(cat_code(2, 2), 2.0, 64) < 1e-8


def test_twelve_gon_ztype_residual_small():
    assert verify_ztype(cat_code(12, 2), 2.0, 80) < 1e-8


def test_wrong_polynomial_is_detected():
    # Drop one root from the quartic: the zero set misses a code point.
    code = cat_code(2, 2)
    scaled = scale_code(code, 2.0)
    wrong = AnnihilationPolynomial.from_dict(
        {(3,): 1.0, (2,): 2.0, (1,): 4.0, (0,): 8.0}, modes=1
    ).normalized()  # (a + 2)(a^2 + 4): vanishes on -2, +-2i but not +2
    residual = verify_ztype(code, 2.0, 64, polys=[wrong])
    assert residual > 1e-2


def test_ztype_residual_shrinks_with_cutoff():
    code = cat_code(12, 2)
    with pytest.warns(UserWarning, match="strained"):
        r40 = verify_ztype(code, 2.0, 40)
    r60 = verify_ztype(code, 2.0, 60)
    assert r60 < r40


def dense_term(u, cutoff):
    """prod_j a_j^{u_j} as a dense (cutoff^n)^2 matrix, mode 0 the left
    Kronecker factor."""
    singles = [np.linalg.matrix_power(annihilation(cutoff), e) for e in u]
    term = singles[0]
    for m in singles[1:]:
        term = np.kron(term, m)
    return term


SHELLS3 = build_catalog_code("polygon_shells", {"m": 4, "p": 3, "radii": [1.0, 2.0, 3.0]})
MIXED = AnnihilationPolynomial.from_dict(
    {(3, 1): 0.5, (0, 2): -1j, (2, 0): 0.25 + 0.5j, (1, 3): 0.125, (0, 0): 1.0}, modes=2)


@pytest.mark.parametrize("code,scale,cutoff,polys", [
    (cat_code(12, 2), 2.0, 80, None),
    (SHELLS3, 2.0, 120, None),
    (build_catalog_code("cube_orthoplex", {"D": 4}), 1.5, 24, [MIXED]),
    # The degree-24 term has exponent >= cutoff: it vanishes on the space.
    (cat_code(12, 2), 5.0, 10, None),
], ids=["cat12", "polygon_shells", "two-mode-mixed", "exponent-over-cutoff"])
def test_index_shift_matches_dense_operator(code, scale, cutoff, polys):
    # On the unit codewords and one random unit vector, F psi by index shift
    # agrees with the dense matrix F = sum_u c_u prod_j a_j^{u_j} to 1e-14
    # relative to the largest term ||c_u a^u psi||: the codeword residuals
    # cancel terms far larger than themselves, down to 2e-4 (polygon_shells)
    # and 1e-14 (cat12).  The residual norms agree to 1e-14 absolute.
    if polys is None:
        polys = ztype_polynomials(scale_code(code, scale))
    gen = np.random.default_rng(cutoff)
    noise = gen.normal(size=cutoff**code.modes) + 1j * gen.normal(size=cutoff**code.modes)
    states = _encoded_states(code, scale, cutoff) + [noise / np.linalg.norm(noise)]
    for poly in polys:
        for psi in states:
            terms = [c * (dense_term(u, cutoff) @ psi) for u, c in poly.terms]
            ref = sum(terms)
            got = _apply_polynomial(poly, psi, cutoff)
            scale_of_terms = max(1.0, max(np.linalg.norm(t) for t in terms))
            assert np.linalg.norm(got - ref) <= 1e-14 * scale_of_terms
            assert abs(np.linalg.norm(got) - np.linalg.norm(ref)) <= 1e-14 * max(
                1.0, np.linalg.norm(ref))


def test_residual_past_exponential_underflow():
    # At |alpha|^2 = 1600, e^{-|alpha|^2/2} underflows; a recurrence started
    # at level 0 gives all-zero codewords.  Started at the largest
    # coefficient, the residual is finite and small, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = verify_ztype(cat_code(2, 2), 40.0, 2000)
    assert np.isfinite(residual) and residual < 1e-9


def test_strain_warning_covers_the_poisson_width():
    # Reach 1600 has Poisson width 40: cutoff 1880 clears the mean by seven
    # widths and still leaves a residual of about 2e-6, far above the 2e-11
    # at cutoff 2000, so it must warn.
    with pytest.warns(UserWarning, match="strained"):
        residual = verify_ztype(cat_code(2, 2), 40.0, 1880)
    assert residual > 1e-7


def test_unreadable_residual_is_a_numerical_failure():
    # Every coefficient below level 100 of |40> underflows: the codewords
    # are zero in the truncated space, which must not read as residual 0.
    with pytest.warns(UserWarning, match="strained"), \
            pytest.raises(NumericalFailure, match="norm 0"):
        verify_ztype(cat_code(2, 2), 40.0, 100)
    # sqrt((k + 300)! / k!) overflows on 2000 levels, and the residual is NaN.
    huge = AnnihilationPolynomial.from_dict({(300,): 1.0, (0,): -1.0}, modes=1)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="nan"):
        verify_ztype(cat_code(2, 2), 1.0, 2000, polys=[huge])


def test_two_mode_ztype_memory_is_linear_in_dimension():
    # Dimension 64^2 = 4096: a dense operator would be 268 MB; the index
    # shift keeps a few copies of the 64 KB codeword tensor.
    code = build_catalog_code("qcc24")
    polys = [AnnihilationPolynomial.from_dict({(4, 0): 1.0, (0, 4): -1.0}, modes=2),
             AnnihilationPolynomial.from_dict({(2, 2): 1.0, (0, 0): -1.0}, modes=2)]
    tracemalloc.start()
    try:
        residual = verify_ztype(code, 1.0, 64, polys=polys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(residual)
    assert peak < 8 * 2**20


def readme_polys(modes):
    """The README's two-mode generators a^4 - b^4 and a^2 b^2 - 1, on modes
    0 and modes - 1 of ``modes``."""
    def u(e0, e1):
        return (e0,) + (0,) * (modes - 2) + (e1,)
    return [AnnihilationPolynomial.from_dict({u(4, 0): 1.0, u(0, 4): -1.0}, modes=modes),
            AnnihilationPolynomial.from_dict({u(2, 2): 1.0, u(0, 0): -1.0}, modes=modes)]


def test_two_mode_ztype_past_the_old_dimension_budget():
    # Cutoff 128 is dimension 16384, four times the old budget of 4096; the
    # tail beyond level 64 adds nothing at scale 1.
    code = build_catalog_code("qcc24")
    r64 = verify_ztype(code, 1.0, 64, polys=readme_polys(2))
    r128 = verify_ztype(code, 1.0, 128, polys=readme_polys(2))
    assert abs(r128 - r64) <= 1e-12


def test_over_cap_ztype_is_rejected_before_allocation():
    # Dimension 10^12: 16 TB per codeword, refused in integer arithmetic.
    code = build_catalog_code("qcc24")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="cutoff 1000000 needs .* cap of 268435456"):
            verify_ztype(code, 1.0, 10**6, polys=readme_polys(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("catalog, params, cutoff", [
    ("cube_orthoplex", {"D": 8}, 8), ("qcc24", {}, 256)], ids=["cube_orthoplex-D8", "qcc24"])
def test_byte_estimate_bounds_the_measured_peak(catalog, params, cutoff):
    # The count the cap is checked against is no guess: it is at least the
    # traced peak of the check and at most three times it.  Partial products
    # (272 x 8^3 entries) set the 4-mode peak, the 256^2 tensors the 2-mode one.
    code = build_catalog_code(catalog, params)
    polys = readme_polys(code.modes)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            # Cutoff 8 is strained for degree 4 at reach 1; only memory counts.
            warnings.simplefilter("ignore", UserWarning)
            verify_ztype(code, 1.0, cutoff, polys=polys)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= _zcheck_bytes(code, cutoff) <= 3 * peak


# ---------------------------------------------------------------------------
# X-type residuals
# ---------------------------------------------------------------------------


def test_cat_parity_invariance():
    residual = verify_xtype(cat_code(2, 2), Rotation.global_phase(1, np.pi), 2.0)
    assert residual < 1e-10


def test_twelve_gon_rotation_invariance():
    code = cat_code(12, 2)
    rot = Rotation.global_phase(1, 2 * np.pi / 12)
    assert verify_xtype(code, rot, 2.0) < 1e-10


def test_half_step_rotation_rejected():
    code = cat_code(12, 2)
    rot = Rotation.global_phase(1, 2 * np.pi / 24)
    with pytest.raises(ValidationError, match="does not preserve"):
        verify_xtype(code, rot, 2.0)


def test_symmetry_is_tested_codeword_by_codeword(tmp_path):
    # Two codewords share the points 1 and -1.  The half turn maps each
    # onto itself; matched over the whole code, a shared point would be
    # matched twice and the rotation rejected.
    doc = {"name": "shared", "modes": 1, "logicals": [
        [{"point": [[1.0, 0.0]], "weight": 0.5}, {"point": [[-1.0, 0.0]], "weight": 0.5}],
        [{"point": [[x, y]], "weight": 0.25} for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1))],
    ]}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(doc))
    code = load_code(str(path))
    half = Rotation.global_phase(1, np.pi)
    assert verify_xtype(code, Rotation.identity(1), 2.0) == 0.0
    # e^{i pi} is -1 + 1.2e-16 i: the residual is roundoff.
    assert 0.0 < verify_xtype(code, half, 2.0) < 1e-15
    pts = code.all_points()
    w = np.concatenate([c.weights for c in code.logicals])
    owner = np.repeat([0, 1], [2, 4])
    assert _symmetry(pts, w, owner, pts @ half.matrix.T, GEOM_TOL) is None
    for c in code.logicals:
        perm, moves = _symmetry(c.points, c.weights, np.zeros(c.size, dtype=int),
                                c.points @ half.matrix.T, GEOM_TOL)
        assert np.array_equal(c.points[perm], -c.points) and moves.tolist() == [0]
    # A quarter turn keeps the second codeword and moves the first.
    with pytest.raises(ValidationError, match="does not preserve weighted constellation 0"):
        verify_xtype(code, Rotation.global_phase(1, np.pi / 2), 2.0)


def test_mode_swap_symmetry_analytic_path():
    # The 24-cell constellation is invariant under swapping the two modes;
    # the swap is passive but not diagonal.
    code = build_catalog_code("cube_orthoplex", {"D": 4})
    swap = Rotation(np.array([[0, 1], [1, 0]], dtype=complex))
    assert verify_xtype(code, swap, 1.5) < 1e-10


def test_mode_swap_times_phase_reads_at_roundoff():
    # Swap times i is a symmetry of the 24-cell code; 2 - 2 Re <C|U|C>
    # cancels to about sqrt(eps) on it (1.9e-9), the closed-form sum does
    # not.
    code = build_catalog_code("cube_orthoplex", {"D": 4})
    u = np.array([[0, 1], [1, 0]]) @ np.diag(np.exp(1j * np.pi / 2 * np.ones(2)))
    assert verify_xtype(code, Rotation(u), 1.5) < 1e-10


def fock_xtype_residual(code, phases, scale, cutoff):
    """max_k ||U|C_k> - |C_k>|| / ||C_k|| for U = exp(i sum_j phi_j n_j),
    built on the truncated Fock space, where U is diagonal."""
    levels = np.indices((cutoff,) * code.modes).reshape(code.modes, -1)
    diag = np.exp(1j * (np.asarray(phases) @ levels))
    return max(float(np.linalg.norm(diag * psi - psi))
               for psi in _encoded_states(code, scale, cutoff))


def moved(code, size, seed):
    """The code with every point moved by ``size`` in a random direction."""
    rng = np.random.default_rng(seed)
    return CodeSpec(name="moved", logicals=tuple(
        WeightedConstellation(c.points + size * np.exp(2j * np.pi * rng.random(c.points.shape)),
                              c.weights)
        for c in code.logicals))


@pytest.mark.parametrize("code,phases,scale,cutoff", [
    (cat_code(12, 2), [np.pi / 6], 2.0, 80),
    (cat_code(2, 2), [np.pi], 2.0, 64),
    (build_catalog_code("polygon_shells", {"m": 4, "p": 3, "radii": [1.0, 2.0, 3.0]}),
     [np.pi / 2], 2.0, 120),
    (build_catalog_code("cube_orthoplex", {"D": 4}), [np.pi / 2, np.pi / 2], 1.5, 24),
    (build_catalog_code("cube_orthoplex", {"D": 4}), [np.pi / 2, 0.0], 1.5, 24),
    # Points moved by 1e-10, inside the matching tolerance: the residuals
    # are 2e-10 to 1.4e-9, which 2 - 2 Re <C|U|C> could not resolve; the
    # three shells' unequal weights pin the sqrt(w) weighting.
    (moved(cat_code(12, 2), 1e-10, 3), [np.pi / 6], 2.0, 80),
    (moved(build_catalog_code("polygon_shells", {"m": 4, "p": 3, "radii": [1.0, 2.0, 3.0]}),
           1e-10, 4), [np.pi / 2], 2.0, 120),
    (moved(build_catalog_code("cube_orthoplex", {"D": 4}), 1e-10, 5),
     [np.pi / 2, 0.0], 1.5, 24),
], ids=["cat12", "cat2", "polygon_shells", "24cell-global", "24cell-mode", "cat12-moved",
        "polygon_shells-moved", "24cell-moved"])
def test_phase_rotation_residual_matches_fock(code, phases, scale, cutoff):
    got = verify_xtype(code, Rotation.mode_phases(phases), scale)
    assert abs(got - fock_xtype_residual(code, phases, scale, cutoff)) <= 1e-14


def test_symmetry_outside_matching_tolerance_rejected():
    # GEOM_TOL bounds the Euclidean distance from each image to its point:
    # moving every point by 1e-9 in each of two modes puts them beyond it.
    code = moved(build_catalog_code("cube_orthoplex", {"D": 4}), 1e-9, 5)
    with pytest.raises(ValidationError, match="does not preserve"):
        verify_xtype(code, Rotation.mode_phases([np.pi / 2, 0.0]), 1.5)


# ---------------------------------------------------------------------------
# Strict containment for multi-shell codes
# ---------------------------------------------------------------------------


def test_multi_shell_stabilized_space_is_larger():
    """A shell-amplitude-perturbed state passes every Z- and X-type check yet
    lies far outside the code space."""
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    scale = 1.5
    cutoff = 80
    scaled = scale_code(code, scale)
    polys = ztype_polynomials(scaled)

    shell1 = np.zeros(cutoff, dtype=complex)
    shell2 = np.zeros(cutoff, dtype=complex)
    c0 = code.logicals[0]
    radii = c0.radii()
    for pt, r in zip(c0.points, radii):
        target = shell1 if np.isclose(r, 1.0) else shell2
        target += coherent_fock(scale * pt, cutoff)
    # An orthonormal code basis whose first column is codeword 0.
    v = np.linalg.qr(np.column_stack(_encoded_states(code, scale, cutoff)))[0]
    codeword = v[:, 0]

    # Orthogonalize the outer-shell component against the codeword while
    # staying inside the span of the two shell sums.
    psi = shell2 - codeword * np.vdot(codeword, shell2)
    psi /= np.linalg.norm(psi)

    z_res = ztype_residual_states(polys, [psi], cutoff)
    assert z_res < 1e-8

    # Exact rotation by one polygon step leaves each shell sum invariant.
    levels = np.arange(cutoff)
    u_diag = np.exp(1j * (2 * np.pi / 6) * levels)
    assert np.linalg.norm(u_diag * psi - psi) < 1e-10

    # ... but the state is far from the code space.
    proj = v @ (v.conj().T @ psi)
    outside = np.linalg.norm(psi - proj)
    assert outside > 1e-3
    assert outside > 0.5  # essentially orthogonal at this scale
