import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.stats import unitary_group

from cubacode import (
    CodeSpec,
    Rotation,
    ValidationError,
    WeightedConstellation,
    apply_rotation,
    build_catalog_code,
    cat_code,
    embed_real_to_complex,
    mean_photon_number,
    normalize_energy,
    polygon_shell_code,
    resolution,
    rotate_code,
    scale_code,
    two_shell_24cell_code,
)
from cubacode.bench import brent_max, grid_brent_max
from cubacode.constellation import (
    _DISTANCE_BYTES,
    DISTINCT_TOL,
    _match_points,
    _pair_scan,
    min_squared_distance,
)
from conftest import embed_complex_to_real


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def test_embed_basis_vector():
    out = embed_real_to_complex([[1.0, 0.0, 0.0, 0.0]])
    assert np.allclose(out, [[1.0 + 0.0j, 0.0 + 0.0j]])


def test_embed_pairs_second_coordinate_to_imaginary():
    out = embed_real_to_complex([[0.0, 1.0]])
    assert np.allclose(out, [[1.0j]])


def test_embed_rejects_odd_dimension():
    with pytest.raises(ValidationError, match="odd real dimension"):
        embed_real_to_complex([[1.0, 2.0, 3.0]])


@given(st.integers(0, 2**32 - 1))
def test_embed_preserves_norms(seed):
    v = np.random.default_rng(seed).normal(size=(3, 4))
    out = embed_real_to_complex(v)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(v, axis=1))


def test_embed_round_trip():
    v = np.random.default_rng(3).normal(size=(5, 6))
    assert np.allclose(embed_complex_to_real(embed_real_to_complex(v)), v)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def test_duplicate_points_rejected():
    pts = np.array([[1.0 + 0j], [1.0 + 0j]])
    with pytest.raises(ValidationError, match="distinct"):
        WeightedConstellation(pts, np.array([0.5, 0.5]))


def test_points_whose_squared_distances_overflow_rejected():
    # Antipodal points at radius r are 2 r apart, and the pair scan bounds
    # the rounding of that squared distance by about 5 r^2: 8 r^2 must be
    # finite.  At r = 6e153 the scan overflowed and called them equal.
    w = np.array([0.5, 0.5])
    ok = WeightedConstellation(np.array([[4e153 + 0j], [-4e153 + 0j]]), w)
    assert ok._nearest == 6.4e307
    for r in (5e153, 6e153, 1e160, 1e300):
        with pytest.raises(ValidationError, match="too large"):
            WeightedConstellation(np.array([[r + 0j], [-r + 0j]]), w)
    with pytest.raises(ValidationError, match="too large"):
        WeightedConstellation(np.array([[4e153, 4e153], [0.0, 1.0]], dtype=complex), w)


def test_weights_must_normalize():
    pts = np.array([[1.0 + 0j], [-1.0 + 0j]])
    with pytest.raises(ValidationError, match="sum to 1"):
        WeightedConstellation(pts, np.array([0.5, 0.6]))
    with pytest.raises(ValidationError, match="positive"):
        WeightedConstellation(pts, np.array([1.5, -0.5]))


@pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.inf, 0.5], [0.5, np.nan]])
def test_weights_must_be_finite(weights):
    # NaN passes both "w <= 0" and "|sum - 1| > tol" as False.
    with pytest.raises(ValidationError, match="finite"):
        WeightedConstellation(np.array([[1.0 + 0j], [-1.0 + 0j]]), np.array(weights))


def test_rotation_must_be_orthogonal():
    with pytest.raises(ValidationError, match="unitary"):
        Rotation(np.array([[1.0, 0.2], [0.0, 1.0]]))


@pytest.mark.parametrize("matrix,match", [
    (np.full((2, 2), np.nan), "non-finite"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "non-finite"),
    (np.eye(2)[:1], "square"),
    (np.zeros((0, 0)), "square"),
    (np.array([[1.0, 0.5j], [0.0, 1.0j]]), "unitary"),
], ids=["nan", "inf", "not-square", "empty", "not-unitary"])
def test_rotation_rejects_invalid_matrix(matrix, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=match):
            Rotation(matrix)


# ---------------------------------------------------------------------------
# Rotation action
# ---------------------------------------------------------------------------


def test_identity_rotation_is_noop():
    c = cat_code(3, 1).logicals[0]
    out = apply_rotation(c, Rotation.identity(1))
    assert np.allclose(out.points, c.points)
    assert np.allclose(out.weights, c.weights)


def test_cat_base_rotated_quarter_turn():
    base = cat_code(2, 1).logicals[0]
    out = apply_rotation(base, Rotation.global_phase(1, np.pi / 2))
    assert np.allclose(sorted(out.points.ravel(), key=np.angle), [-1j, 1j])


@given(st.integers(0, 2**32 - 1))
def test_rotation_preserves_pairwise_distances(seed):
    c = build_catalog_code("cell16_qutrit").logicals[0]
    rot = Rotation(unitary_group.rvs(2, random_state=seed))
    out = apply_rotation(c, rot)
    diff_in = c.points[:, None] - c.points[None, :]
    diff_out = out.points[:, None] - out.points[None, :]
    d_in = np.abs(diff_in).sum(axis=2)
    d_out = np.abs(diff_out).sum(axis=2)
    assert np.abs((np.abs(diff_in) ** 2).sum(axis=2) - (np.abs(diff_out) ** 2).sum(axis=2)).max() < 1e-10


def test_rotation_dimension_mismatch():
    c = cat_code(2, 1).logicals[0]
    with pytest.raises(ValidationError, match="dimension"):
        apply_rotation(c, Rotation.identity(2))


# ---------------------------------------------------------------------------
# Energy and resolution
# ---------------------------------------------------------------------------


def test_unit_sphere_mean_photon_number():
    c = build_catalog_code("cube_orthoplex", {"D": 4}).logicals[0]
    assert abs(mean_photon_number(c) - 1.0) < 1e-12


def test_mean_photon_number_scales_quadratically():
    c = cat_code(2, 1).logicals[0]
    assert abs(mean_photon_number(c.scaled(3.0)) - 9.0) < 1e-12


def test_hexagon_two_shell_energy_from_direct_sum():
    # Independent evaluation: shell weights 1 and (1/2)^6 per point, six
    # points per shell, shells at radii 1 and 2.
    w1, w2 = 1.0, 2.0**-6
    total = 6 * (w1 + w2)
    expected = (6 * w1 * 1.0 + 6 * w2 * 4.0) / total
    assert abs(expected - 68 / 65) < 1e-15
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    assert abs(mean_photon_number(code.logicals[0]) - expected) < 1e-12


def test_normalize_energy_unit_shell_is_identity():
    code = build_catalog_code("cube_orthoplex", {"D": 4})
    _, lam = normalize_energy(code, 1.0)
    assert abs(lam - 1.0) < 1e-12


def test_normalize_energy_hexagon_lambda():
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    normed, lam = normalize_energy(code, 1.0)
    assert abs(lam**2 - 65 / 68) < 1e-12
    for c in normed.logicals:
        assert abs(mean_photon_number(c) - 1.0) < 1e-10


def test_normalize_energy_square_three_shell():
    code = polygon_shell_code(4, 3, (1.0, 2.0, 3.0))
    normed, _ = normalize_energy(code, 1.0)
    for c in normed.logicals:
        assert abs(mean_photon_number(c) - 1.0) < 1e-10


def test_normalize_energy_rejects_mismatched_codewords():
    a = cat_code(2, 1, radius=1.0).logicals[0]
    b = cat_code(2, 1, radius=2.0).logicals[0]
    code = CodeSpec(name="uneven", logicals=(a, b))
    with pytest.raises(ValidationError, match="unequal"):
        normalize_energy(code, 1.0)


def test_normalize_energy_rejects_zero_constellation():
    c = WeightedConstellation(np.array([[0.0 + 0j]]), np.array([1.0]))
    with pytest.raises(ValidationError, match="zero"):
        normalize_energy(CodeSpec(name="vac", logicals=(c,)), 1.0)


def test_derived_codes_keep_every_field_but_the_points():
    # The warning is the tight-design one, so every metadata field is set.
    code = polygon_shell_code(4, 4, (1, 2, 3, 4))
    assert code.warnings and code.claimed_degree == 9
    derived = [scale_code(code, 2.5), rotate_code(code, Rotation.global_phase(1, 0.3)),
               normalize_energy(code, 1.7)[0]]
    for copy in derived:
        for f in dataclasses.fields(CodeSpec):
            if f.name != "logicals":
                assert getattr(copy, f.name) == getattr(code, f.name), f.name


def test_resolution_cat_two():
    assert abs(resolution(cat_code(2, 2)) - 2.0) < 1e-12


def test_resolution_cell16_qutrit():
    assert abs(resolution(build_catalog_code("cell16_qutrit")) - 1.0) < 1e-9


def test_resolution_builds_no_orbit_table():
    code = build_catalog_code("qcc24")
    assert resolution(code) == min_squared_distance(code.all_points())
    assert "orbits" not in code.__dict__


def pair_loop_row(x, i):
    """Squared distances from point i to every point j, coordinate by
    coordinate as the kernel sums them.  Each square is a product, which is
    rounded once: libm's pow(t, 2), which ``t ** 2`` calls, can be an ulp
    off it."""
    return [sum((a - b) * (a - b) for a, b in zip(x[i], x[j])) for j in range(len(x))]


def loop_nearest(points) -> float:
    """The least squared distance over index pairs i < j, one pair at a
    time, coordinate by coordinate."""
    x = embed_complex_to_real(points).tolist()
    return min(d for i in range(len(x)) for d in pair_loop_row(x, i)[i + 1:])


@st.composite
def multimode_points(draw, amplitude=st.just(1.0), near=st.booleans()):
    modes = draw(st.integers(1, 3))
    size = draw(st.integers(2, 7))
    coord = st.floats(-3.0, 3.0)
    pts = np.array(draw(st.lists(st.lists(st.tuples(coord, coord), min_size=modes,
                                          max_size=modes), min_size=size, max_size=size)))
    pts = draw(amplitude) * (pts[..., 0] + 1j * pts[..., 1])
    if draw(near):
        # A pair just above the distinctness threshold.
        step = np.zeros(modes, dtype=complex)
        step[draw(st.integers(0, modes - 1))] = np.sqrt(2.0 * DISTINCT_TOL) * draw(
            st.sampled_from([1.0, 1j, -1.0]))
        pts = np.vstack([pts, pts[draw(st.integers(0, size - 1))] + step])
    return pts


def assert_kernels_match_pair_loop(points, split):
    nearest = loop_nearest(points)
    assert min_squared_distance(points) == nearest
    assume(nearest > DISTINCT_TOL)
    split = min(split, len(points) - 1)
    parts = [points[:split], points[split:]]
    code = CodeSpec(name="split", logicals=tuple(
        WeightedConstellation(z, np.full(len(z), 1.0 / len(z))) for z in parts))
    assert resolution(code) == nearest


@given(multimode_points(), st.integers(1, 3))
def test_distance_kernels_match_pair_loop(points, split):
    assert_kernels_match_pair_loop(points, split)


@given(multimode_points(amplitude=st.floats(-3.0, 5.0).map(lambda e: 10.0 ** e), near=st.just(True)),
       st.integers(1, 3))
def test_distance_kernels_match_pair_loop_at_every_amplitude(points, split):
    # The Gram form's rounding grows with the largest |a|^2, up to 1e10
    # here, while the nearest pair sits near DISTINCT_TOL.
    assert_kernels_match_pair_loop(points, split)


@pytest.mark.parametrize("near, far", [
    ("last_two", "first"),    # closest pair inside the last block only
    ("boundary", "boundary"),  # a block's last row against the next block's first
    ("ends", "middle"),        # the first row against the last
], ids=lambda v: v)
def test_row_blocked_distances_match_pair_loop_exactly(near, far):
    # Enough points for several row blocks.  One pair is moved close
    # together and one point far away (which widens the Gram form's
    # rounding window), so the nearest pair sits where the parameters say;
    # each distance is summed coordinate by coordinate, as the pair loop
    # does, so the results agree to the bit.
    gen = np.random.default_rng(7)
    points = gen.normal(size=(600, 4)) + 1j * gen.normal(size=(600, 4))
    block = _DISTANCE_BYTES // (8 * len(points))
    assert len(points) >= 4 * block
    i, j = {"last_two": (598, 599), "boundary": (block - 1, block), "ends": (0, 599)}[near]
    points[j] = points[i] + 1e-3
    points[{"first": 0, "boundary": 2 * block, "middle": 300}[far]] = 50.0
    x = embed_complex_to_real(points).tolist()
    nearest = loop_nearest(points)
    assert nearest == pair_loop_row(x, i)[j]
    assert min_squared_distance(points) == nearest
    found = {(int(a), int(b)): d for pairs in _pair_scan(points) for a, b, d in zip(*pairs)}
    assert found[i, j] == nearest
    code = CodeSpec(name="blocks", logicals=tuple(
        WeightedConstellation(z, np.full(len(z), 1.0 / len(z))) for z in (points[:250], points[250:])))
    assert resolution(code) == nearest


def test_resolution_memory_is_row_blocked():
    # The full 544 x 544 distance and difference arrays took 4.7 MiB.
    code = normalize_energy(build_catalog_code("cube_orthoplex", {"D": 8}), 1.0)[0]
    tracemalloc.start()
    try:
        value = resolution(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.5, rel=1e-12)
    assert peak < 2 * 2**20


def test_distinct_check_on_every_construction():
    base = WeightedConstellation(np.array([[1.0 + 0j], [1.0 + 2e-6j]]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="pairwise distinct"):
        base.scaled(1e-200)
    with pytest.raises(ValidationError, match="pairwise distinct"):
        base.scaled(0.1)  # squared distance 4e-14
    with pytest.raises(ValidationError, match="pairwise distinct"):
        scale_code(CodeSpec(name="close", logicals=(base,)), 0.1)
    # A scaled copy skips the pair scan but not the DISTINCT_TOL check.
    unit = WeightedConstellation(np.array([[0.0 + 0j], [1.0 + 0j], [3.0 + 0j]]),
                                 np.full(3, 1.0 / 3.0))
    assert unit.scaled(1e-5)._nearest == pytest.approx(1e-10, rel=1e-15)
    with pytest.raises(ValidationError, match="pairwise distinct"):
        unit.scaled(1e-7)


@pytest.fixture
def scan_count(monkeypatch):
    import cubacode.constellation as module

    calls = []
    scan = module._pair_scan
    monkeypatch.setattr(module, "_pair_scan",
                        lambda points, *args: calls.append(len(points)) or scan(points, *args))
    return calls


def test_derived_constellations_are_not_rescanned(scan_count):
    # cube_orthoplex --D 8 is one base constellation, two phase-rotated
    # codewords of it and their energy-normalized copies: one scan.
    code, _ = normalize_energy(build_catalog_code("cube_orthoplex", {"D": 8}), 1.0)
    assert scan_count == [code.logicals[0].size]
    rotated = rotate_code(code, Rotation.global_phase(4, 0.3))
    assert len(scan_count) == 1
    assert rotated.logicals[0]._nearest == code.logicals[0]._nearest
    assert min_squared_distance(rotated.logicals[0].points) == pytest.approx(
        rotated.logicals[0]._nearest, rel=1e-12)


def test_fresh_constellation_is_scanned(scan_count):
    base = build_catalog_code("cat", {"m": 8}).logicals[0]
    fresh = WeightedConstellation(base.points, base.weights)
    assert len(scan_count) == 2
    assert fresh._nearest == base._nearest == pytest.approx(min_squared_distance(base.points))


def test_nearest_distance_is_outside_repr_and_eq():
    c = WeightedConstellation(np.array([[1.0 + 0j]]), np.array([1.0]))
    assert repr(c) == f"WeightedConstellation(points={c.points!r}, weights={c.weights!r})"
    fields = dataclasses.fields(WeightedConstellation)
    assert [f.name for f in fields if f.compare] == ["points", "weights"]
    assert [f.name for f in fields if f.repr] == ["points", "weights"]
    assert c == c.scaled(1.0) and c != c.scaled(2.0)


def test_match_points_finds_the_permutation():
    gen = np.random.default_rng(3)
    pts = gen.normal(size=(7, 2)) + 1j * gen.normal(size=(7, 2))
    perm = gen.permutation(7)
    assert np.array_equal(_match_points(pts, pts[perm] + 1e-12, 1e-9), perm)


def test_match_points_needs_a_bijection():
    pts = np.array([[0.0], [1.0], [3.0]], dtype=complex)
    assert _match_points(pts, np.array([[0.0], [1.0], [1.0]], dtype=complex), 1e-9) is None


def test_match_points_bounds_the_euclidean_distance():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    images = pts.copy()
    images[-1] += 0.8e-9  # 0.8 tol in each mode, 1.13 tol in all
    assert _match_points(pts, images, 1e-9) is None
    images[-1] = pts[-1] + 0.7e-9 * np.array([1.0, 1.0j])  # 0.99 tol in all
    assert np.array_equal(_match_points(pts, images, 1e-9), [0, 1, 2])


def test_resolution_needs_two_distinct_points():
    c = WeightedConstellation(np.array([[1.0 + 0j]]), np.array([1.0]))
    with pytest.raises(ValidationError, match="2"):
        resolution(CodeSpec(name="single", logicals=(c,)))


def test_resolution_rejects_coincident_codewords():
    c = WeightedConstellation(np.array([[1.0 + 0j, 2.0j]]), np.array([1.0]))
    with pytest.raises(ValidationError, match="2 distinct points"):
        resolution(CodeSpec(name="twin", logicals=(c, c)))


@given(st.floats(0.2, 4.0))
def test_scaling_law(lam):
    code = build_catalog_code("qcc8")
    base_res = resolution(code)
    base_nbar = mean_photon_number(code.logicals[0])
    scaled = scale_code(code, lam)
    assert resolution(scaled) == pytest.approx(lam**2 * base_res, rel=1e-12)
    assert mean_photon_number(scaled.logicals[0]) == pytest.approx(lam**2 * base_nbar, rel=1e-12)


def test_common_rotation_preserves_resolution_and_energy():
    code = build_catalog_code("twoshell_24cell", {"tau": 2.0})
    rot = Rotation(unitary_group.rvs(2, random_state=99))
    rotated = rotate_code(code, rot)
    assert abs(resolution(rotated) - resolution(code)) < 1e-10
    for a, b in zip(code.logicals, rotated.logicals):
        assert abs(mean_photon_number(a) - mean_photon_number(b)) < 1e-10


def test_catalog_weights_normalized():
    for name, params in [
        ("cat", {"m": 8}),
        ("polygon_shells", {"m": 6, "p": 2, "radii": (1.0, 2.0)}),
        ("hypercube", {"D": 4}),
        ("orthoplex", {"D": 4}),
        ("cube_orthoplex", {"D": 4}),
        ("cell16_qutrit", {}),
        ("cell8_cell16_qubit", {}),
        ("twoshell_8_16", {"r1": 1.0, "r2": 2.0}),
        ("twoshell_24cell", {"tau": 2.0}),
    ]:
        code = build_catalog_code(name, params)
        for c in code.logicals:
            assert abs(c.weights.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Catalog resolution regression (quoted values at unit energy)
# ---------------------------------------------------------------------------


def test_catalog_resolution_regression():
    def d_e_at_unit_energy(code):
        normed, _ = normalize_energy(code, 1.0)
        return resolution(normed)

    assert abs(d_e_at_unit_energy(cat_code(2, 2)) - 2.0) < 1e-9
    assert abs(d_e_at_unit_energy(build_catalog_code("cube_orthoplex", {"D": 2}))
               - 4 * np.sin(np.pi / 16) ** 2) < 1e-9
    assert abs(d_e_at_unit_energy(build_catalog_code("cube_orthoplex", {"D": 4}))
               - (2 - np.sqrt(2))) < 1e-9
    assert abs(d_e_at_unit_energy(cat_code(12, 2)) - 0.07) < 0.01
    assert abs(d_e_at_unit_energy(polygon_shell_code(6, 2, (1.0, 2.0))) - 0.26) < 0.01
    assert abs(d_e_at_unit_energy(polygon_shell_code(4, 3, (1.0, 2.0, 3.0))) - 0.44) < 0.01
    assert abs(d_e_at_unit_energy(two_shell_24cell_code(2.0)) - 0.56) < 0.01


# ---------------------------------------------------------------------------
# One-dimensional search (Brent's method)
# ---------------------------------------------------------------------------


def recording(f):
    seen = []

    def g(x):
        seen.append((x, f(x)))
        return seen[-1][1]

    return g, seen


def bracket(seen, a, b):
    """Length of the bracket around the best recorded point: its nearest
    evaluated neighbours, or the interval ends."""
    x = max(seen, key=lambda t: t[1])[0]
    return min([b] + [u for u, _ in seen if u > x]) - max([a] + [u for u, _ in seen if u < x])


def test_brent_stops_on_tol_and_max_iter():
    for tol in (0.1, 1e-3, 1e-6):
        f, seen = recording(lambda x: -(x - 0.3) ** 2)
        brent_max(f, 0.0, 1.0, tol=tol, max_iter=100)
        # It stops at the first evaluation that brings the bracket below tol.
        assert bracket(seen, 0.0, 1.0) < tol <= bracket(seen[:-1], 0.0, 1.0)
    for max_iter in (1, 4, 10):
        # On a kink with tol = 0 only the evaluation budget ends the search.
        f, seen = recording(lambda x: -abs(x - 0.3))
        brent_max(f, 0.0, 1.0, tol=0.0, max_iter=max_iter)
        assert len(seen) == max_iter
        # Seeds are not evaluations.
        f, seen = recording(lambda x: -abs(x - 0.3))
        brent_max(f, 0.0, 1.0, tol=0.0, max_iter=max_iter, seeds=[(0.5, -0.2), (0.2, -0.1)])
        assert len(seen) == max_iter


def test_brent_hits_a_seeded_parabola():
    vertex = 0.4123
    parabola = lambda x: 1.0 - 3.0 * (x - vertex) ** 2  # noqa: E731
    f, seen = recording(parabola)
    x, fx = brent_max(f, 0.2, 0.8, tol=1e-4, max_iter=40,
                      seeds=[(x, parabola(x)) for x in (0.5, 0.2, 0.8)])
    assert min(abs(u - vertex) for u, _ in seen[:2]) < 1e-9
    assert len(seen) <= 4
    assert abs(x - vertex) < 1e-9 and fx == parabola(x)


def test_brent_converges_on_a_kink():
    f, seen = recording(lambda x: -abs(x - 0.3))
    x, fx = brent_max(f, 0.0, 1.0, tol=1e-8, max_iter=200)
    assert abs(x - 0.3) < 1e-6 and len(seen) < 200


def test_golden_section_returns_best_evaluated_point():
    # Not unimodal: the bracket may close in on a worse local maximum.
    f, seen = recording(lambda x: np.sin(9.0 * x) + 0.3 * x)
    best = brent_max(f, 0.0, 2.0, tol=1e-6, max_iter=40)
    assert best == max(seen, key=lambda t: t[1])
    f, seen = recording(lambda x: 1.0)
    assert brent_max(f, 0.0, 1.0, tol=0.0, max_iter=5) == seen[0]


def test_golden_section_ranks_none_lowest():
    f, seen = recording(lambda x: None if x < 0.5 else -(x - 0.7) ** 2)
    x, fx = brent_max(f, 0.0, 1.0, tol=1e-8, max_iter=100)
    assert any(v is None for _, v in seen)
    assert abs(x - 0.7) < 1e-6 and fx is not None
    assert brent_max(lambda x: None, 0.0, 1.0, tol=0.0, max_iter=3)[1] is None


def test_grid_golden_max_refines_between_grid_neighbours():
    xs = [0.0, 0.5, 1.0, 1.5]
    f = lambda x: None if x > 1.2 else -(x - 0.6) ** 2  # noqa: E731
    x, fx = grid_brent_max(f, xs, [f(x) for x in xs], tol=1e-9, max_iter=100)
    assert abs(x - 0.6) < 1e-6
    # The grid point wins ties.
    assert grid_brent_max(lambda x: 2.0, xs, [1.0, 2.0, 2.0, 1.0], 1e-3, 10) == (0.5, 2.0)


def test_grid_brent_max_never_reevaluates_grid_points():
    xs = [float(x) for x in np.linspace(0.0, 2.0, 9)]
    for fn in (lambda x: np.sin(3.0 * x), lambda x: x, lambda x: -x, lambda x: -abs(x - 1.1)):
        f, seen = recording(fn)
        x, fx = grid_brent_max(f, xs, [fn(x) for x in xs], tol=1e-9, max_iter=40)
        assert seen and not {u for u, _ in seen} & set(xs)
        assert fx == max([fn(x) for x in xs] + [v for _, v in seen])
    f, seen = recording(lambda x: x)
    assert grid_brent_max(f, [1.5], [1.5], tol=1e-9, max_iter=40) == (1.5, 1.5) and not seen
