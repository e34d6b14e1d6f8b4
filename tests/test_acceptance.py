"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run pytest -s to see them inline)."""

import time

import numpy as np
import pytest

from cubacode import (
    Rotation,
    ValidationError,
    build_catalog_code,
    cat_code,
    code_parameters,
    cube_orthoplex_code,
    hypercube_code,
    kl_report,
    normalize_energy,
    orthoplex_code,
    polygon_shell_code,
    resolution,
    scale_code,
    size_bounds,
    two_shell_24cell_code,
    two_shell_cell_code,
    verify_xtype,
    verify_ztype,
    ztype_polynomials,
)
from cubacode.bench import optimal_scale_adaptive, pair_bench, sweep_gamma
from cubacode.klcheck import lowdin_inverse_sqrt
from cubacode.moments import code_size_bounds, multi_indices_upto
from cubacode.stabilizer import (
    AnnihilationPolynomial,
    _encoded_states,
    ztype_residual_states,
)
from conftest import (
    annihilation,
    coherent_fock,
    coherent_overlap,
    is_spherical_design,
    ladder_matrix_element,
    match_degree,
    param_triple,
    sphere_monomial_integral,
)


def report(number: int, name: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s runtime limit"


# ---------------------------------------------------------------------------
# 1. Code-parameter reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_code_parameters():
    started = time.perf_counter()
    cases = [
        (cube_orthoplex_code(2, 2), 12, (8, 8, 8)),        # 16-leg cat
        (cat_code(12, 2), 14, (12, 12, 12)),               # 12-gon pair
        (build_catalog_code("cell16_qutrit"), 8, (2, 4, 4)),
        (cube_orthoplex_code(4, 2), 14, (5, 6, 12)),       # 24-cell pair
        (polygon_shell_code(6, 2, (1.0, 2.0)), 20, (7, 8, 18)),
        (polygon_shell_code(4, 3, (1.0, 2.0, 3.0)), 14, (6, 8, 12)),
        (two_shell_24cell_code(2.0), 14, (6, 8, 12)),
    ]
    for code, ceiling, expected in cases:
        got = param_triple(code_parameters(code, ceiling=ceiling, tol=1e-9))
        assert got == expected, f"{code.name}: {got} != {expected}"
    report(1, "code parameters", started, 10.0)


# ---------------------------------------------------------------------------
# 2. Resolution reproduction at unit energy
# ---------------------------------------------------------------------------


def test_criterion_2_resolutions():
    started = time.perf_counter()

    def unit_resolution(code):
        return resolution(normalize_energy(code, 1.0)[0])

    assert abs(resolution(cat_code(2, 2)) - 2.0) < 1e-9  # unit radius as stated
    assert abs(unit_resolution(cube_orthoplex_code(2, 2)) - 4 * np.sin(np.pi / 16) ** 2) < 1e-9
    assert abs(unit_resolution(cube_orthoplex_code(4, 2)) - (2 - np.sqrt(2))) < 1e-9
    assert abs(unit_resolution(cat_code(12, 2)) - 0.07) < 0.01
    assert abs(unit_resolution(polygon_shell_code(6, 2, (1.0, 2.0))) - 0.26) < 0.01
    assert abs(unit_resolution(polygon_shell_code(4, 3, (1.0, 2.0, 3.0))) - 0.44) < 0.01
    assert abs(unit_resolution(two_shell_24cell_code(2.0)) - 0.56) < 0.01
    report(2, "resolutions", started, 1.0)


# ---------------------------------------------------------------------------
# 3. Bound saturation
# ---------------------------------------------------------------------------


def test_criterion_3_bounds():
    started = time.perf_counter()
    # Tight rows: the applicable lower bound (odd degree: strengthened bound)
    # equals the known point count.
    for D in (2, 3, 4, 5, 6, 8):
        assert size_bounds("sphere", D, 1, actual=2).tight            # antipodal pair
        assert size_bounds("sphere", D, 2, actual=D + 1).tight        # simplex
        assert size_bounds("sphere", D, 3, actual=2 * D).tight        # cross-polytope
    assert size_bounds("sphere", 3, 5, actual=12).tight               # icosahedron
    assert size_bounds("sphere", 3, 5, actual=12).moller_min == 12

    # Existence upper bound covers every catalog constellation.
    catalog_cases = [
        cat_code(2, 2), cat_code(8, 2), cat_code(12, 2),
        polygon_shell_code(6, 2, (1.0, 2.0)),
        polygon_shell_code(4, 2, (1.0, 2.0)),
        polygon_shell_code(4, 3, (1.0, 2.0, 3.0)),
        hypercube_code(2, 2), hypercube_code(4, 2),
        orthoplex_code(2, 2), orthoplex_code(4, 2),
        cube_orthoplex_code(2, 2), cube_orthoplex_code(4, 2),
        build_catalog_code("cell16_qutrit"),
        build_catalog_code("cell8_cell16_qubit"),
        two_shell_cell_code(1.0, 2.0), two_shell_24cell_code(2.0),
    ]
    for code in catalog_cases:
        for rep in code_size_bounds(code):
            assert rep.tchakaloff_max >= rep.actual, code.name
    report(3, "size bounds", started, 1.0)


# ---------------------------------------------------------------------------
# 4. Degree/parameter consistency across the catalog
# ---------------------------------------------------------------------------


def test_criterion_4_theorem_consistency():
    started = time.perf_counter()
    catalog_cases = [
        cat_code(2, 2), cat_code(8, 2), cat_code(12, 2),
        polygon_shell_code(6, 2, (1.0, 2.0)),
        polygon_shell_code(4, 2, (1.0, 2.0)),
        polygon_shell_code(4, 3, (1.0, 2.0, 3.0)),
        hypercube_code(2, 2), hypercube_code(4, 2),
        orthoplex_code(2, 2), orthoplex_code(4, 2),
        cube_orthoplex_code(2, 2), cube_orthoplex_code(4, 2),
        build_catalog_code("cell16_qutrit"),
        build_catalog_code("cell8_cell16_qubit"),
        two_shell_cell_code(1.0, 2.0), two_shell_24cell_code(2.0),
    ]
    for code in catalog_cases:
        t = match_degree(code, code.claimed_degree + 2)
        triple = code_parameters(code, ceiling=t + 2)
        assert triple.t_down >= t // 2, code.name
        assert triple.d_updown >= t + 1, code.name
        assert triple.d_updown - 1 == t, code.name
    report(4, "degree consistency", started, 10.0)


# ---------------------------------------------------------------------------
# 5. Closed-form vs truncated-Fock oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    gen = np.random.default_rng(2718)
    cases = 0

    # Single-mode overlaps and ladder elements at cutoff 40: coherent tails
    # for |alpha| <= 2 are below 1e-25, well under the 1e-12 gate.
    a_op = annihilation(40)
    for _ in range(40):
        a = complex(*gen.uniform(-1.4, 1.4, size=2))
        b = complex(*gen.uniform(-1.4, 1.4, size=2))
        fa = coherent_fock([a], 40)
        fb = coherent_fock([b], 40)
        assert 1.0 - np.vdot(fa, fa).real < 1e-12
        assert abs(np.vdot(fa, fb) - coherent_overlap([a], [b])) < 1e-8
        cases += 1
    for _ in range(40):
        a = complex(*gen.uniform(-1.4, 1.4, size=2))
        b = complex(*gen.uniform(-1.4, 1.4, size=2))
        p, q = int(gen.integers(0, 4)), int(gen.integers(0, 4))
        op = np.linalg.matrix_power(a_op.conj().T, p) @ np.linalg.matrix_power(a_op, q)
        fa = coherent_fock([a], 40)
        fb = coherent_fock([b], 40)
        assert abs(np.vdot(fa, op @ fb) - ladder_matrix_element([a], [b], (p,), (q,))) < 1e-8
        cases += 1

    # Every block of two KL reports against the Fock computation.
    def check_blocks(code, scale, cutoff, singles):
        nonlocal cases
        dim = cutoff**code.modes
        raw = np.zeros((dim, code.dim), dtype=complex)
        for k, c in enumerate(code.logicals):
            for w, pt in zip(c.weights, c.points):
                st = coherent_fock(scale * pt, cutoff)
                assert 1.0 - np.vdot(st, st).real < 1e-12
                raw[:, k] += np.sqrt(w) * st
        v = raw @ lowdin_inverse_sqrt(np.conj(raw.T) @ raw)
        rep = kl_report(code, max_loss=2, scale=scale)
        for (mu, nu), blk in rep.matrices.items():
            e_mu = np.eye(dim)
            e_nu = np.eye(dim)
            for j in range(code.modes):
                e_mu = e_mu @ np.linalg.matrix_power(singles[j], mu[j])
                e_nu = e_nu @ np.linalg.matrix_power(singles[j], nu[j])
            fock_blk = v.conj().T @ e_mu.conj().T @ e_nu @ v
            assert np.abs(fock_blk - blk).max() < 1e-8
            cases += 1

    check_blocks(cat_code(2, 2), 2.0, 40, [a_op])
    # a on mode 0 and on mode 1 of two modes at cutoff 22.
    eye22 = np.eye(22)
    singles2 = [np.kron(annihilation(22), eye22), np.kron(eye22, annihilation(22))]
    check_blocks(build_catalog_code("cell16_qutrit"), 1.5, 22, singles2)

    assert cases >= 100, f"only {cases} randomized oracle cases"
    report(5, f"oracle equivalence ({cases} cases)", started, 30.0)


# ---------------------------------------------------------------------------
# 6. Pure-loss benchmark structure
# ---------------------------------------------------------------------------


def test_criterion_6_benchmark_structure():
    started = time.perf_counter()
    grid = np.linspace(0.8, 3.3, 14)
    gammas = (0.05, 0.1, 0.15, 0.2)

    optima = {}
    for name in ("qsc8", "qcc8", "qsc12", "qcc12"):
        code = normalize_energy(build_catalog_code(name), 1.0)[0]
        s_op, f_op = optimal_scale_adaptive(code, 0.1, grid)
        optima[name] = (code, s_op, f_op)

    # (a) multi-shell codes reach their optimum at lower amplitude.
    assert optima["qcc8"][1] < optima["qsc8"][1]
    assert optima["qcc12"][1] < optima["qsc12"][1]

    # (b) relative infidelity above 1 across the gamma range, scales fixed
    # at the gamma = 0.1 optima.
    for ell in (8, 12):
        qcc, s_qcc, _ = optima[f"qcc{ell}"]
        qsc, s_qsc, _ = optima[f"qsc{ell}"]
        _, _, rows = pair_bench(qcc, qsc, gammas, grid=[s_qcc, s_qsc])
        for row in rows:
            assert row.r_infidelity > 1.0, f"pair {ell} at gamma {row.gamma}: R={row.r_infidelity}"

    # (c) and (d): unit fidelity at zero loss; monotone decrease in gamma.
    for name, (code, s_op, _) in optima.items():
        points = sweep_gamma(code, np.arange(0.0, 0.2001, 0.02), grid, scale=s_op)
        fids = [p.fidelity for p in points]
        assert abs(fids[0] - 1.0) < 1e-8, name
        assert all(b < a + 1e-12 for a, b in zip(fids, fids[1:])), name
        assert all(b < a for a, b in zip(fids[1:], fids[2:])), name
    report(6, "benchmark structure", started, 300.0)


# ---------------------------------------------------------------------------
# 7. Stabilizer suite
# ---------------------------------------------------------------------------


def test_criterion_7_stabilizers():
    started = time.perf_counter()

    # Z residuals at scale 2 for cat and 12-gon.
    assert verify_ztype(cat_code(2, 2), 2.0, 64) < 1e-8
    assert verify_ztype(cat_code(12, 2), 2.0, 80) < 1e-8

    # X residuals at scale 2.
    assert verify_xtype(cat_code(2, 2), Rotation.global_phase(1, np.pi), 2.0) < 1e-10
    assert verify_xtype(cat_code(12, 2), Rotation.global_phase(1, np.pi / 6), 2.0) < 1e-10

    # Negative controls: a polynomial missing one root, and a rotation that
    # does not preserve the constellation.
    wrong = AnnihilationPolynomial.from_dict(
        {(3,): 1.0, (2,): 2.0, (1,): 4.0, (0,): 8.0}, modes=1
    ).normalized()
    assert verify_ztype(cat_code(2, 2), 2.0, 64, polys=[wrong]) > 1e-2
    with pytest.raises(ValidationError):
        verify_xtype(cat_code(12, 2), Rotation.global_phase(1, np.pi / 12), 2.0)

    # Strict containment witness for a multi-shell code: a shell-perturbed
    # state passing all checks but far from the code space.
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    scale = 1.5
    cutoff = 80
    polys = ztype_polynomials(scale_code(code, scale))
    shell2 = np.zeros(cutoff, dtype=complex)
    c0 = code.logicals[0]
    for pt, r in zip(c0.points, c0.radii()):
        if np.isclose(r, 2.0):
            shell2 += coherent_fock(scale * pt, cutoff)
    v = np.linalg.qr(np.column_stack(_encoded_states(code, scale, cutoff)))[0]
    psi = shell2 - v[:, 0] * np.vdot(v[:, 0], shell2)
    psi /= np.linalg.norm(psi)
    assert ztype_residual_states(polys, [psi], cutoff) < 1e-8
    u_step = np.exp(1j * (np.pi / 3) * np.arange(cutoff))
    assert np.linalg.norm(u_step * psi - psi) < 1e-10
    assert np.linalg.norm(psi - v @ (v.conj().T @ psi)) > 1e-3
    report(7, "stabilizer suite", started, 30.0)


# ---------------------------------------------------------------------------
# 8. Exact integration of random polynomials on verified designs
# ---------------------------------------------------------------------------


def test_criterion_8_random_polynomial_integration():
    started = time.perf_counter()
    gen = np.random.default_rng(31415)
    designs = [
        (cat_code(2, 1).logicals[0], 1),
        (cat_code(4, 1).logicals[0], 3),
        (cat_code(6, 1).logicals[0], 5),
        (cat_code(8, 1).logicals[0], 7),
        (cat_code(12, 1).logicals[0], 11),
        (hypercube_code(4, 1).logicals[0], 3),
        (orthoplex_code(4, 1).logicals[0], 3),
        (cube_orthoplex_code(4, 1).logicals[0], 5),
        (cube_orthoplex_code(2, 1).logicals[0], 7),
    ]
    for c, t in designs:
        assert is_spherical_design(c, t, tol=1e-9)
        D = 2 * c.modes
        pts = np.empty((c.size, D))
        pts[:, 0::2] = c.points.real
        pts[:, 1::2] = c.points.imag
        monomials = list(multi_indices_upto(D, t))
        moments = np.array(
            [float(c.weights @ np.prod(pts ** np.asarray(u), axis=1)) for u in monomials]
        )
        integrals = np.array([sphere_monomial_integral(D, u) for u in monomials])
        for _ in range(50):
            coeffs = gen.normal(size=len(monomials)) + 1j * gen.normal(size=len(monomials))
            assert abs(coeffs @ (moments - integrals)) < 1e-9
    report(8, "random polynomial integration", started, 10.0)
