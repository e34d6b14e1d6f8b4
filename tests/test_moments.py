import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubacode import (
    CodeSpec,
    ValidationError,
    build_catalog_code,
    cat_code,
    pair_moments,
    polygon_shell_code,
    size_bounds,
)
from cubacode.catalog import orthoplex_vertices
from cubacode.constellation import Rotation, rotate_code
from cubacode.moments import (
    MAX_BOUNDS_DEGREE,
    _index_box,
    _level,
    _monomials,
    code_size_bounds,
    multi_indices_upto,
)
from conftest import (
    design_moment_deviation,
    is_spherical_design,
    match_degree,
    multi_indices,
    point_moments,
    sphere_monomial_integral,
    sphere_monomial_integral_exact,
)

# ---------------------------------------------------------------------------
# Reference point sets (independent constructions for oracle tests)
# ---------------------------------------------------------------------------


def simplex_vertices(D):
    """Regular simplex: project the D+1 basis vectors of R^{D+1} onto the
    hyperplane orthogonal to (1,...,1) and normalize."""
    basis = np.eye(D + 1)
    centered = basis - basis.mean(axis=0)
    # Orthonormal basis of the hyperplane via QR of the centered vectors.
    q, _ = np.linalg.qr(centered.T)
    coords = centered @ q[:, :D]
    return coords / np.linalg.norm(coords, axis=1)[:, None]


def icosahedron_vertices():
    phi = (1 + np.sqrt(5)) / 2
    verts = []
    for s1, s2 in itertools.product((-1, 1), repeat=2):
        verts += [(0, s1, s2 * phi), (s1, s2 * phi, 0), (s2 * phi, 0, s1)]
    verts = np.array(verts, dtype=float)
    return verts / np.linalg.norm(verts, axis=1)[:, None]


def monte_carlo_sphere_integral(D, u, n_samples=1_000_000, seed=11):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n_samples, D))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return float(np.prod(x ** np.asarray(u), axis=1).mean())


# ---------------------------------------------------------------------------
# pair_moments
# ---------------------------------------------------------------------------


def moment(code, p, q) -> np.ndarray:
    """M_k(p, q) of every codeword k, read off ``pair_moments``."""
    pairs, moms = pair_moments(code, sum(p) + sum(q))
    return moms[:, pairs.tolist().index([*p, *q])]


def test_cat_base_first_moment_vanishes():
    assert abs(moment(cat_code(2, 1), (0,), (1,))[0]) < 1e-15


def test_hexagon_two_shell_sixth_moment_cancels():
    # Radial cancellation: w2 r2^6 = w1 r1^6 with opposite shell phases.
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    assert abs(moment(code, (0,), (6,))[0]) < 1e-12


def test_24cell_number_moment_against_brute_force():
    # Independent oracle: enumerate the 24 vertices directly.
    verts = np.vstack([orthoplex_vertices(4),
                       np.array(list(itertools.product((-0.5, 0.5), repeat=4)))])
    alpha1 = verts[:, 0] + 1j * verts[:, 1]
    brute = float(np.mean(np.abs(alpha1) ** 2))
    assert abs(brute - 0.5) < 1e-12
    code = build_catalog_code("cube_orthoplex", {"D": 4})
    assert moment(code, (1, 0), (1, 0))[0] == pytest.approx(0.5, abs=1e-12)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_moment_conjugation_symmetry(p1, q1, p2, q2):
    code = build_catalog_code("twoshell_8_16", {"r1": 1.0, "r2": 2.0})
    m1 = moment(code, (p1, p2), (q1, q2))[0]
    m2 = moment(code, (q1, q2), (p1, p2))[0]
    assert m1 == pytest.approx(np.conj(m2), abs=1e-13)


@pytest.mark.parametrize("name, params", [
    ("cat", {"m": 6}),
    ("polygon_shells", {"m": 4, "p": 3, "radii": [1.0, 2.0, 3.0]}),
    ("twoshell_8_16", {"r1": 1.0, "r2": 2.0}),
    ("cube_orthoplex", {"D": 6}),
], ids=["cat6", "square_shells", "twoshell_8_16", "cube_orthoplex6"])
def test_stacked_moments_match_scalar_loop(name, params):
    # The pair table against a scalar loop over points and pairs, on the
    # pairs |p| <= 2, |q| <= 3.
    code = build_catalog_code(name, params)
    n = code.modes
    pairs, stacked = pair_moments(code, 5)
    rows = {tuple(pq): i for i, pq in enumerate(pairs.tolist())}
    for k, c in enumerate(code.logicals):
        for p in multi_indices_upto(n, 2):
            for q in multi_indices_upto(n, 3):
                loop = sum(w * np.prod(np.conj(a) ** np.asarray(p) * a ** np.asarray(q))
                           for a, w in zip(c.points, c.weights))
                got = stacked[k, rows[p + q]]
                assert abs(got - loop) <= 1e-12 * max(1.0, abs(loop))


@pytest.mark.parametrize("name, params, degree", [
    ("cat", {"m": 6}, 7),
    ("twoshell_8_16", {"r1": 1.0, "r2": 2.0}, 5),
    ("cube_orthoplex", {"D": 6}, 4),
], ids=["cat6", "twoshell_8_16", "cube_orthoplex6"])
def test_pair_moments_match_full_box(name, params, degree):
    # Every pair with |p| + |q| <= degree, in multi_indices_upto(2n) order,
    # read out of the full box |p|, |q| <= degree.
    code = build_catalog_code(name, params)
    n = code.modes
    pairs, moms = pair_moments(code, degree)
    assert pairs.tolist() == [list(u) for u in multi_indices_upto(2 * n, degree)]
    box = list(multi_indices_upto(n, degree))
    pos = {u: i for i, u in enumerate(box)}
    at = ([pos[tuple(pq[:n])] for pq in pairs.tolist()],
          [pos[tuple(pq[n:])] for pq in pairs.tolist()])
    for k, c in enumerate(code.logicals):
        ref = point_moments(c, box, box)[at]
        assert np.abs(moms[k] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    with pytest.raises(ValidationError, match="nonnegative"):
        pair_moments(code, -1)


@pytest.mark.parametrize("n, degree", [(1, 0), (1, 6), (2, 5), (3, 4), (4, 6), (6, 3)])
def test_index_box_matches_sorted_product(n, degree):
    ref = sorted((u for u in itertools.product(range(degree + 1), repeat=n) if sum(u) <= degree),
                 key=lambda u: (sum(u), u))
    box = _index_box(n, degree)
    assert box.tolist() == [list(u) for u in ref]
    assert not box.flags.writeable
    for k in range(degree + 1):
        assert list(multi_indices(n, k)) == [u for u in ref if sum(u) == k]
        assert box[_level(n, k)].sum(axis=1).tolist() == [k] * len(list(multi_indices(n, k)))
    assert list(multi_indices_upto(n, degree)) == ref


@pytest.mark.parametrize("n, degree", [(1, 9), (2, 6), (3, 5), (4, 4)])
@pytest.mark.parametrize("real", [False, True])
def test_monomials_match_power_reference(n, degree, real):
    gen = np.random.default_rng(7 + n)
    z = gen.uniform(-1.5, 1.5, size=(5, n))
    if not real:
        z = z + 1j * gen.uniform(-1.5, 1.5, size=(5, n))
    table = _monomials(z, degree)
    box = _index_box(n, degree)
    assert table.shape == (len(box), 5)
    ref = np.array([[np.prod(a ** np.asarray(u)) for a in z] for u in box])
    assert np.abs(table - ref).max() <= 1e-13 * np.abs(ref).max()
    # Grown from a lower degree, level by level, the table is the same.
    for low in range(degree):
        assert np.array_equal(_monomials(z, degree, _monomials(z, low)), table)


# ---------------------------------------------------------------------------
# Moment match degree
# ---------------------------------------------------------------------------


def test_match_degree_cat_two():
    assert match_degree(cat_code(2, 2), 6) == 1


def test_match_degree_24cell_pair():
    assert match_degree(build_catalog_code("cube_orthoplex", {"D": 4}), 8) == 5


def test_match_degree_identical_constellations():
    c = cat_code(4, 1).logicals[0]
    code = CodeSpec(name="twin", logicals=(c, c))
    assert match_degree(code, 7) == 7


def test_match_degree_rejects_negative_degree():
    with pytest.raises(ValidationError, match="nonnegative"):
        match_degree(cat_code(4, 2), -1)
    assert match_degree(cat_code(4, 2), 0) == 0


def test_match_degree_invariant_under_common_rotation():
    code = cat_code(4, 2)
    rotated = rotate_code(code, Rotation.global_phase(1, 0.37))
    assert match_degree(code, 9) == match_degree(rotated, 9)


# ---------------------------------------------------------------------------
# Sphere integrals
# ---------------------------------------------------------------------------


def test_sphere_integral_odd_exponent_vanishes():
    assert sphere_monomial_integral(3, (1, 0, 0)) == 0.0


def test_sphere_integral_known_values():
    assert sphere_monomial_integral_exact(2, (2, 0)) == Fraction(1, 2)
    assert sphere_monomial_integral_exact(4, (2, 2, 0, 0)) == Fraction(1, 24)
    assert sphere_monomial_integral_exact(3, (2, 0, 0)) == Fraction(1, 3)
    assert sphere_monomial_integral_exact(3, (4, 0, 0)) == Fraction(1, 5)


def test_sphere_integral_against_monte_carlo():
    for D, u in [(2, (2, 0)), (4, (2, 2, 0, 0)), (3, (2, 2, 0)), (4, (4, 0, 0, 0))]:
        mc = monte_carlo_sphere_integral(D, u)
        assert abs(mc - sphere_monomial_integral(D, u)) < 1e-3


# ---------------------------------------------------------------------------
# Spherical designs
# ---------------------------------------------------------------------------


def test_24cell_is_5_design_not_6():
    c = build_catalog_code("cube_orthoplex", {"D": 4}).logicals[0]
    assert is_spherical_design(c, 5, tol=1e-9)
    assert not is_spherical_design(c, 6, tol=1e-9)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8])
def test_regular_polygon_design_strength(m):
    c = cat_code(m, 1).logicals[0]
    assert is_spherical_design(c, m - 1, tol=1e-9)
    assert not is_spherical_design(c, m, tol=1e-9)


def test_design_check_rejects_multi_shell():
    c = polygon_shell_code(6, 2, (1.0, 2.0)).logicals[0]
    with pytest.raises(ValidationError, match="single-shell"):
        is_spherical_design(c, 3)


def test_design_check_agrees_with_monte_carlo_oracle():
    # Moments of single-shell catalog constellations up to the claimed
    # degree agree with a sampled integral at the Monte-Carlo noise floor
    # (3 sigma at 200k samples is ~5e-3; the seed makes this deterministic).
    gen = np.random.default_rng(5)
    for name, params, t in [("cat", {"m": 6}, 5), ("cube_orthoplex", {"D": 4}, 5),
                            ("orthoplex", {"D": 4}, 3)]:
        c = build_catalog_code(name, params).logicals[0]
        assert is_spherical_design(c, t, tol=1e-9)
        D = 2 * c.modes
        pts = np.empty((c.size, D))
        pts[:, 0::2] = c.points.real
        pts[:, 1::2] = c.points.imag
        x = gen.normal(size=(200_000, D))
        x /= np.linalg.norm(x, axis=1)[:, None]
        # The samples' monomials level by level, in blocks of samples.
        sums = sum(_monomials(x[lo:lo + 8192], t).sum(axis=1) for lo in range(0, len(x), 8192))
        for u, mc in zip(multi_indices_upto(D, t), sums / len(x)):
            mom = float(c.weights @ np.prod(pts ** np.asarray(u), axis=1))
            assert abs(mom - mc) < 5e-3


# ---------------------------------------------------------------------------
# Size bounds
# ---------------------------------------------------------------------------


def test_tight_design_rows():
    # antipodal pair, simplex, cross-polytope for several dimensions,
    # icosahedron for D = 3: the applicable lower bound equals the size.
    for D in (2, 3, 4, 5, 6):
        assert size_bounds("sphere", D, 1, actual=2).tight
        rep = size_bounds("sphere", D, 2, actual=D + 1)
        assert rep.fisher_min == D + 1 and rep.tight
        rep = size_bounds("sphere", D, 3, actual=2 * D)
        assert rep.moller_min == 2 * D and rep.tight
    rep = size_bounds("sphere", 3, 5, actual=12)
    assert rep.moller_min == 12 and rep.tight


def test_tight_design_moments():
    # The same point sets really are designs of the listed strength.
    for D in (2, 3, 4):
        anti = np.vstack([np.eye(D)[:1], -np.eye(D)[:1]])
        assert design_moment_deviation(anti, np.full(2, 0.5), 1) < 1e-12
        simp = simplex_vertices(D)
        assert design_moment_deviation(simp, np.full(D + 1, 1 / (D + 1)), 2) < 1e-12
        orth = np.vstack([np.eye(D), -np.eye(D)])
        assert design_moment_deviation(orth, np.full(2 * D, 1 / (2 * D)), 3) < 1e-12
    ico = icosahedron_vertices()
    assert design_moment_deviation(ico, np.full(12, 1 / 12), 5) < 1e-12


def test_sphere_tchakaloff_d2():
    assert size_bounds("sphere", 2, 3, actual=4).tchakaloff_max == 7
    for t in range(0, 9):
        assert size_bounds("sphere", 2, t, actual=1).tchakaloff_max == 2 * t + 1


def test_moller_none_for_even_degree():
    rep = size_bounds("sphere", 3, 4, actual=10)
    assert rep.moller_min is None


def test_space_bounds_match_tight_euclidean_designs():
    # Two-shell hexagon (12 points), three-shell square (12), two-shell
    # 24-cell (48) saturate the odd-degree lower bound on full space.
    assert size_bounds("space", 2, 7, actual=12).tight
    assert size_bounds("space", 2, 5, actual=8).tight
    assert size_bounds("space", 4, 7, actual=48).tight


def test_odd_degree_bound_on_space_counts_the_parity_tower():
    # 2 dim P*_e for t = 2e + 1 on space(D), P*_e = Hom_e + Hom_{e-2} + ...
    for D in range(1, 9):
        for e in range(30):
            tower = sum(comb(D + k - 1, k) for k in range(e % 2, e + 1, 2))
            assert size_bounds("space", D, 2 * e + 1, actual=1).moller_min == 2 * tower


def test_size_bounds_refuse_a_degree_over_the_cap():
    assert size_bounds("space", 4, MAX_BOUNDS_DEGREE, actual=1).fisher_min == comb(4 + 2**19, 4)
    for domain in ("sphere", "space"):
        with pytest.raises(ValidationError, match="above the cap of 1048576"):
            size_bounds(domain, 4, MAX_BOUNDS_DEGREE + 1, actual=1)


def test_pair_moments_cap_counts_the_pairs(monkeypatch):
    # One mode: C(2 + 1446, 2) = 1047628 pairs pass the cap of 2^20 and
    # reach the index box; C(2 + 1447, 2) = 1049076 do not.
    import cubacode.moments as moments

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(moments, "_index_box", reached)
    with pytest.raises(Reached):
        pair_moments(cat_code(8, 2), 1446)
    with pytest.raises(ValidationError, match="1049076 moment pairs"):
        pair_moments(cat_code(8, 2), 1447)


def test_code_size_bounds_conservative_flag():
    reports = code_size_bounds(build_catalog_code("twoshell_24cell", {"tau": 2.0}))
    assert all(r.conservative for r in reports)
    assert all(r.domain == "space" for r in reports)
    single = code_size_bounds(build_catalog_code("cell16_qutrit"))
    assert all(not r.conservative and r.domain == "sphere" for r in single)


def test_fisher_never_exceeds_tchakaloff():
    for domain in ("sphere", "space"):
        for D in (2, 3, 4, 6):
            for t in range(0, 10):
                rep = size_bounds(domain, D, t, actual=1)
                assert rep.fisher_min <= rep.tchakaloff_max


# ---------------------------------------------------------------------------
# Complex-coefficient integration on verified designs
# ---------------------------------------------------------------------------


def test_random_complex_polynomials_integrate_exactly():
    gen = np.random.default_rng(123)
    c = build_catalog_code("cube_orthoplex", {"D": 4}).logicals[0]
    D, t = 4, 5
    pts = np.empty((c.size, D))
    pts[:, 0::2] = c.points.real
    pts[:, 1::2] = c.points.imag
    monomials = list(multi_indices_upto(D, t))
    for _ in range(20):
        coeffs = gen.normal(size=len(monomials)) + 1j * gen.normal(size=len(monomials))
        weighted = sum(
            cf * float(c.weights @ np.prod(pts ** np.asarray(u), axis=1))
            for cf, u in zip(coeffs, monomials)
        )
        integral = sum(cf * sphere_monomial_integral(D, u) for cf, u in zip(coeffs, monomials))
        assert abs(weighted - integral) < 1e-9
