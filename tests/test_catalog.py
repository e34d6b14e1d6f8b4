import re

import numpy as np
import pytest

from cubacode import ValidationError, build_catalog_code, scale_code
from cubacode.catalog import (
    CATALOG,
    MAX_POINTS,
    cat_code,
    cell24_vertices,
    cube_orthoplex_code,
    describe_code,
    halfcube_vertices,
    hypercube_vertices,
    orthoplex_code,
    orthoplex_vertices,
    polygon_shell_code,
    two_shell_24cell_code,
    two_shell_cell_code,
)
from cubacode.constellation import _match_points
from conftest import match_degree


def test_cat_two_codewords_are_antipodal_pairs():
    code = cat_code(2, 2)
    first = sorted(code.logicals[0].points.ravel(), key=lambda z: z.real)
    second = sorted(code.logicals[1].points.ravel(), key=lambda z: z.imag)
    assert np.allclose(first, [-1.0, 1.0])
    assert np.allclose(second, [-1.0j, 1.0j])
    for c in code.logicals:
        assert np.allclose(c.weights, 0.5)


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("name,params,m_sym", [
    ("cat", {"m": 5}, 5),
    ("polygon_shells", {"m": 4, "p": 3, "radii": (1.0, 2.0, 3.0)}, 4),
    ("hypercube", {"D": 2}, 4), ("hypercube", {"D": 4}, 4),
    ("orthoplex", {"D": 2}, 4), ("orthoplex", {"D": 6}, 4),
    ("cube_orthoplex", {"D": 2}, 8), ("cube_orthoplex", {"D": 4}, 4),
    ("twoshell_8_16", {"r1": 1.0, "r2": 2.0}, 4),
    ("twoshell_24cell", {"tau": 2.0}, 4),
], ids=lambda v: str(v))
def test_codewords_interleave_by_one_phase_rule(name, params, m_sym, K):
    # Codeword k is codeword 0 times e^{2 pi i k/(K m_sym)}, point for point,
    # and codeword 0 is invariant under the phase 2 pi/m_sym.
    code = build_catalog_code(name, dict(params, K=K))
    base = code.logicals[0]
    turn = np.exp(2j * np.pi / m_sym)
    perm = _match_points(base.points, turn * base.points, 1e-12)
    assert perm is not None and np.array_equal(base.weights[perm], base.weights)
    for k, c in enumerate(code.logicals):
        phase = np.exp(2j * np.pi * k / (K * m_sym))
        assert np.abs(c.points - phase * base.points).max() <= 1e-15 * np.abs(base.points).max()
        assert np.array_equal(c.weights, base.weights)


def test_vertex_generators_are_unit_norm():
    for verts in (hypercube_vertices(4), orthoplex_vertices(4), cell24_vertices(),
                  halfcube_vertices(4, 0), halfcube_vertices(4, 1)):
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0)


def test_halfcubes_partition_the_hypercube():
    even = {tuple(np.sign(v).astype(int)) for v in halfcube_vertices(4, 0)}
    odd = {tuple(np.sign(v).astype(int)) for v in halfcube_vertices(4, 1)}
    full = {tuple(np.sign(v).astype(int)) for v in hypercube_vertices(4)}
    assert even | odd == full and not (even & odd)
    assert len(even) == len(odd) == 8


def test_two_shell_24cell_weight_ratio():
    code = two_shell_24cell_code(2.0)
    c = code.logicals[0]
    assert c.size == 48
    radii = c.radii()
    inner = c.weights[np.isclose(radii, 1.0)]
    outer = c.weights[np.isclose(radii, 2.0)]
    assert len(inner) == len(outer) == 24
    assert np.allclose(outer / inner.mean(), 0.5**6)


def test_polygon_shell_weights_match_hexagon_special_case():
    # The general alternating rule reduces to w2/w1 = (r1/r2)^m at p = 2.
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    c = code.logicals[0]
    radii = c.radii()
    w1 = c.weights[np.isclose(radii, 1.0)].mean()
    w2 = c.weights[np.isclose(radii, 2.0)].mean()
    assert abs(w2 / w1 - 0.5**6) < 1e-14


def test_square_three_shell_weights_positive_and_interpolatory():
    # Hand-evaluated rule at radii 1,2,3: w ~ (1, 1/10, 1/135) before
    # normalization.
    code = polygon_shell_code(4, 3, (1.0, 2.0, 3.0))
    c = code.logicals[0]
    radii = c.radii()
    w1 = c.weights[np.isclose(radii, 1.0)].mean()
    w2 = c.weights[np.isclose(radii, 2.0)].mean()
    w3 = c.weights[np.isclose(radii, 3.0)].mean()
    assert w2 / w1 == pytest.approx(1 / 10, rel=1e-12)
    assert w3 / w1 == pytest.approx(1 / 135, rel=1e-12)


def test_cube_orthoplex_weights_formula():
    for D in (2, 4, 6):
        code = cube_orthoplex_code(D, 1)
        c = code.logicals[0]
        cube_w = D / (2.0**D * (D + 2))
        orth_w = 1.0 / (D * (D + 2))
        expected = np.concatenate([np.full(2**D, cube_w), np.full(2 * D, orth_w)])
        assert np.allclose(c.weights, expected)


def test_cube_orthoplex_d2_is_uniform_octagon():
    code = cube_orthoplex_code(2, 1)
    c = code.logicals[0]
    assert c.size == 8
    assert np.allclose(c.weights, 1 / 8)
    angles = np.sort(np.angle(c.points.ravel()) % (2 * np.pi))
    assert np.allclose(np.diff(angles), np.pi / 4)


def test_two_shell_cell_code_weight_ratio():
    code = two_shell_cell_code(1.0, 2.0)
    c = code.logicals[0]
    assert c.size == 24
    radii = c.radii()
    w8 = c.weights[np.isclose(radii, 1.0)]
    w16 = c.weights[np.isclose(radii, 2.0)]
    assert len(w8) == 16 and len(w16) == 8
    assert np.allclose(w16.mean() / w8.mean(), (1.0 / 2.0) ** 4)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.7, 3.0])
def test_two_shell_cell_code_at_equal_radii_is_the_scaled_cube_orthoplex(r):
    # One family: qsc24 is the equal-radius member of qcc24's family.
    shells = two_shell_cell_code(r, r)
    scaled = scale_code(cube_orthoplex_code(4), r)
    for a, b in zip(shells.logicals, scaled.logicals, strict=True):
        assert np.abs(a.points - b.points).max() <= 2e-16 * r
        assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("name, params, degree", [
    ("twoshell_8_16", {"r1": 1.0, "r2": 1.0}, 5),
    ("twoshell_8_16", {"r1": 1.0, "r2": 1.5}, 5),
    ("twoshell_8_16", {"r1": 1.0, "r2": 2.0}, 5),
    ("twoshell_8_16", {"r1": 1.0, "r2": 3.0}, 5),
    ("cube_orthoplex", {"D": 2}, 7),
    ("cube_orthoplex", {"D": 4}, 5),
    ("cube_orthoplex", {"D": 6}, 5),
    ("cube_orthoplex", {"D": 8}, 5),
], ids=str)
def test_cube_orthoplex_family_matches_its_claimed_degree(name, params, degree):
    code = build_catalog_code(name, params)
    assert match_degree(code, 9) == degree == code.claimed_degree


@pytest.mark.parametrize("build, text", [
    (lambda: cube_orthoplex_code(16), "2^16 + 32 points"),
    (lambda: orthoplex_code(MAX_POINTS // 2 + 2), f"{MAX_POINTS + 4} points"),
    (lambda: cat_code(MAX_POINTS + 1, 1), f"{MAX_POINTS + 1} points"),
    (lambda: polygon_shell_code(4, 2, (1.0, 2.0), K=MAX_POINTS), f"{8 * MAX_POINTS} points"),
    (lambda: two_shell_cell_code(1.0, 2.0, K=10**9), f"{24 * 10**9} points"),
], ids=["cube_orthoplex", "orthoplex", "cat", "polygon_shells", "twoshell_8_16"])
def test_codes_above_the_point_cap_are_rejected(build, text):
    with pytest.raises(ValidationError, match=f"{re.escape(text)}, more than the catalog's cap"):
        build()


@pytest.mark.parametrize("name", ["cat", "polygon_shells", "hypercube", "orthoplex",
                                  "cube_orthoplex", "twoshell_8_16", "twoshell_24cell"])
def test_every_interleaved_code_checks_k(name):
    params = {"cat": {"m": 4}, "polygon_shells": {"m": 4, "p": 2, "radii": (1.0, 2.0)},
              "twoshell_8_16": {"r1": 1, "r2": 2}, "twoshell_24cell": {"tau": 2}}
    params = params.get(name, {"D": 4})
    with pytest.raises(ValidationError, match="needs K >= 1"):
        build_catalog_code(name, dict(params, K=0))


def test_shell_count_warning_metadata():
    # p beyond the tight-design limit is a warning, not a failure.
    code = polygon_shell_code(2, 4, (1.0, 2.0, 3.0, 4.0))
    assert code.warnings
    assert "tight-design limit" in code.warnings[0]


def test_polygon_radii_must_increase():
    with pytest.raises(ValidationError, match="increasing"):
        polygon_shell_code(4, 2, (2.0, 1.0))


def test_unknown_catalog_name_lists_entries():
    with pytest.raises(ValidationError, match="available:"):
        build_catalog_code("nonsense")


def test_unknown_parameter_rejected():
    with pytest.raises(ValidationError, match="unknown parameter"):
        build_catalog_code("cat", {"m": 4, "bogus": 1})


def test_describe_cell16_qutrit():
    text = describe_code(build_catalog_code("cell16_qutrit"), CATALOG["cell16_qutrit"].nominal)
    assert "2 modes" in text and "3 codewords" in text and "8 points each" in text
    assert "single shell" in text


def test_describe_cat_eight_points():
    text = describe_code(build_catalog_code("cat", {"m": 8}), CATALOG["cat"].nominal)
    assert "8 points each" in text


def test_bench_aliases_resolve():
    for name in ("qsc8", "qcc8", "qsc12", "qcc12", "qsc24", "qcc24"):
        code = build_catalog_code(name)
        total = sum(c.size for c in code.logicals)
        assert total == 2 * int(name[3:])
