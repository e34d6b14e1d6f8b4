import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubacode import (
    CodeSpec,
    DegenerateCodewordsError,
    ValidationError,
    build_catalog_code,
    cat_code,
    coherent_overlap,
    code_parameters,
    kl_report,
    ladder_matrix_element,
    moment_match_degree,
    normalize_energy,
    polygon_shell_code,
    WeightedConstellation,
)
from cubacode.stabilizer import coherent_fock
from cubacode.klcheck import ParamTriple, codeword_gram, lowdin_inverse_sqrt
from cubacode.moments import multi_indices, multi_indices_upto
from conftest import annihilation


def fock_ladder_element(a, b, p, q, cutoff=40):
    fa = coherent_fock(np.atleast_1d(a), cutoff)
    fb = coherent_fock(np.atleast_1d(b), cutoff)
    op = np.linalg.matrix_power(annihilation(cutoff).conj().T, p) @ np.linalg.matrix_power(
        annihilation(cutoff), q
    )
    return complex(np.vdot(fa, op @ fb))


# ---------------------------------------------------------------------------
# Closed-form matrix elements
# ---------------------------------------------------------------------------


def test_overlap_with_itself_is_one():
    a = np.array([0.7 - 0.2j, 1.1 + 0.4j])
    assert coherent_overlap(a, a) == pytest.approx(1.0)


def test_overlap_antipodal_pair():
    assert coherent_overlap([1.0], [-1.0]) == pytest.approx(np.exp(-2.0))


def test_overlap_quarter_turn_magnitude_and_fock_value():
    val = coherent_overlap([1.0], [1.0j])
    assert abs(val) == pytest.approx(np.exp(-1.0))
    fock = fock_ladder_element(1.0, 1.0j, 0, 0)
    assert val == pytest.approx(fock, abs=1e-10)


def test_overlap_magnitude_is_distance_suppressed(rng):
    for _ in range(20):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        mag = abs(coherent_overlap(a, b))
        assert mag == pytest.approx(np.exp(-0.5 * np.linalg.norm(a - b) ** 2), rel=1e-12)


def test_overlap_dimension_mismatch():
    with pytest.raises(ValidationError, match="mode count"):
        coherent_overlap([1.0], [1.0, 2.0])


def test_ladder_element_reduces_to_overlap():
    a, b = np.array([0.4 + 0.1j]), np.array([-0.3 + 0.8j])
    assert ladder_matrix_element(a, b, (0,), (0,)) == pytest.approx(coherent_overlap(a, b))


def test_ladder_element_number_expectation():
    a = np.array([1.3 - 0.7j])
    assert ladder_matrix_element(a, a, (1,), (1,)) == pytest.approx(abs(a[0]) ** 2)


def test_ladder_element_against_fock(rng):
    for _ in range(30):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        p, q = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        exact = ladder_matrix_element([a], [b], (p,), (q,))
        assert exact == pytest.approx(fock_ladder_element(a, b, p, q), abs=1e-9)


# ---------------------------------------------------------------------------
# KL report
# ---------------------------------------------------------------------------


def test_kl_blocks_are_block_hermitian():
    rep = kl_report(cat_code(2, 2), max_loss=2, scale=2.0)
    for (mu, nu), blk in rep.matrices.items():
        assert np.abs(blk - rep.matrices[(nu, mu)].conj().T).max() < 1e-10


def test_kl_identity_block_is_identity():
    rep = kl_report(cat_code(2, 2), max_loss=1, scale=2.0)
    eye_block = rep.matrices[((0,), (0,))]
    assert np.abs(eye_block - np.eye(2)).max() < 1e-12


def test_kl_off_diagonal_suppression_cat():
    # Off-diagonals follow exp(-d_E s^2 / 2) times a polynomial prefactor;
    # with d_E = 2 they reach 1e-6 near scale 4.4 (at scale 3 the bare
    # suppression floor exp(-9) ~ 1.2e-4 makes a 1e-6 bound unattainable).
    code = cat_code(2, 2)
    assert kl_report(code, 1, 3.0).off_diag_max < 2e-3
    assert kl_report(code, 1, 4.4).off_diag_max < 1e-6


def test_kl_off_diagonal_decay_slope():
    code = cat_code(2, 2)
    scales = [2.0, 2.75, 3.5, 4.25, 5.0]
    offs = [kl_report(code, 1, s).off_diag_max for s in scales]
    assert all(b < a for a, b in zip(offs, offs[1:]))
    slope = np.polyfit([s**2 for s in scales], np.log(offs), 1)[0]
    assert abs(slope - (-1.0)) < 0.1  # -d_E/2 with d_E = 2


def test_kl_24cell_diag_spread_and_scaled_off_diagonals():
    code = build_catalog_code("cube_orthoplex", {"D": 4})
    rep = kl_report(code, max_loss=4, scale=4.0)
    assert rep.diag_spread_max < 1e-3
    assert rep.off_diag_rel < 5e-2
    rep5 = kl_report(code, max_loss=2, scale=5.0)
    assert rep5.off_diag_rel < 1e-3


def test_kl_diag_spread_approaches_moment_spread():
    # Large-scale limit: the diagonal entries converge to the weighted
    # moments, which match exactly for this code.
    rep = kl_report(cat_code(2, 2), max_loss=1, scale=8.0)
    assert rep.diag_spread_max < 1e-12


def test_kl_degenerate_codewords_raise():
    with pytest.raises(DegenerateCodewordsError, match="degenerate"):
        kl_report(cat_code(2, 2), max_loss=1, scale=1e-6)


def test_kl_gram_matches_overlap_sum():
    code = cat_code(2, 2)
    g = codeword_gram(code, 2.0)
    # Raw codeword inner product is the 4-term coherent-overlap sum.
    expected = 0.0
    for a in (2.0, -2.0):
        for b in (2.0j, -2.0j):
            expected += 0.5 * coherent_overlap([a], [b])
    assert g[0, 1] == pytest.approx(expected, abs=1e-14)


def uneven_code() -> CodeSpec:
    """Three two-mode codewords of 3, 4 and 5 random points with random
    weights, so no two codewords share a size or a weight vector."""
    gen = np.random.default_rng(11)
    logicals = []
    for size in (3, 4, 5):
        w = gen.uniform(0.2, 1.0, size)
        logicals.append(WeightedConstellation(gen.normal(size=(size, 2)) + 1j * gen.normal(
            size=(size, 2)), w / w.sum()))
    return CodeSpec(name="uneven", logicals=tuple(logicals))


@pytest.mark.parametrize("code", [
    uneven_code(),
    cat_code(4, 2),
    cat_code(3, 3),
    polygon_shell_code(4, 2, (1.0, 2.0)),
    build_catalog_code("cell16_qutrit"),
    build_catalog_code("twoshell_24cell", {"tau": 2.0}),
], ids=lambda c: c.name)
@pytest.mark.parametrize("scale", [0.5, 1.0, 2.5])
def test_codeword_gram_matches_pair_loop(code, scale):
    g = codeword_gram(code, scale)
    for k, ck in enumerate(code.logicals):
        for l, cl in enumerate(code.logicals):
            loop = sum(
                np.sqrt(wa * wb) * coherent_overlap(scale * a, scale * b)
                for a, wa in zip(ck.points, ck.weights)
                for b, wb in zip(cl.points, cl.weights)
            )
            assert abs(g[k, l] - loop) <= 1e-13 * max(1.0, abs(loop))


def test_tolerance_must_be_finite_and_nonnegative():
    code = cat_code(4, 2)
    for tol in (np.nan, -1e-9, np.inf):
        with pytest.raises(ValidationError, match="tol"):
            code_parameters(code, ceiling=5, tol=tol)
        with pytest.raises(ValidationError, match="tol"):
            moment_match_degree(code, 5, tol=tol)
    code_parameters(code, ceiling=5, tol=0.0)  # zero is allowed


# ---------------------------------------------------------------------------
# Code parameters
# ---------------------------------------------------------------------------


def test_parameters_hexagon_two_shell():
    code = polygon_shell_code(6, 2, (1.0, 2.0))
    assert code_parameters(code, ceiling=20).astuple() == (7, 8, 18)


def test_parameters_cell16_qutrit():
    assert code_parameters(build_catalog_code("cell16_qutrit"), ceiling=8).astuple() == (2, 4, 4)


def test_parameters_square_three_shell():
    code = polygon_shell_code(4, 3, (1.0, 2.0, 3.0))
    assert code_parameters(code, ceiling=14).astuple() == (6, 8, 12)


def test_parameters_scale_invariant():
    from cubacode import scale_code

    code = polygon_shell_code(4, 2, (1.0, 2.0))
    a = code_parameters(code, ceiling=10).astuple()
    b = code_parameters(scale_code(code, 0.37), ceiling=10).astuple()
    assert a == b


def test_parameters_need_two_codewords():
    with pytest.raises(ValidationError, match="two codewords"):
        code_parameters(build_catalog_code("cat", {"m": 4, "K": 1}), ceiling=5)


def test_param_triple_invariants():
    with pytest.raises(ValidationError):
        ParamTriple(t_down=3, d_updown=5, d_down=4, search_ceiling=10)
    with pytest.raises(ValidationError):
        ParamTriple(t_down=3, d_updown=4, d_down=11, search_ceiling=10)


def test_param_triple_correction_within_loss_gain_detection():
    with pytest.raises(ValidationError, match="correction"):
        ParamTriple(t_down=5, d_updown=4, d_down=6, search_ceiling=10)
    assert ParamTriple(t_down=4, d_updown=4, d_down=6, search_ceiling=10).astuple() == (4, 4, 6)


# ---------------------------------------------------------------------------
# Loop references for the stacked moment and block evaluations
# ---------------------------------------------------------------------------


def scalar_moment(c, p, q) -> complex:
    # One pair (p, q) at a time: its monomial at every point, then the
    # weighted sum over the points.
    terms = np.prod(np.conj(c.points) ** np.asarray(p) * c.points ** np.asarray(q), axis=1)
    return complex(c.weights @ terms)


def pair_matches(code, p, q, tol) -> bool:
    m = [scalar_moment(c, p, q) for c in code.logicals]
    return max(abs(x - m[0]) for x in m) <= tol


def reference_match_degree(code, t_max, tol=1e-9) -> int:
    n = code.modes
    for degree in range(1, t_max + 1):
        for pq in multi_indices(2 * n, degree):
            if not pair_matches(code, pq[:n], pq[n:], tol):
                return degree - 1
    return t_max


def reference_code_parameters(code, ceiling, tol=1e-9) -> tuple:
    n = code.modes
    zero = (0,) * n
    d_down = ceiling
    for degree in range(1, ceiling):
        if not all(pair_matches(code, zero, q, tol) for q in multi_indices(n, degree)):
            d_down = degree
            break
    d_updown = reference_match_degree(code, ceiling - 1, tol) + 1
    t_down = ceiling
    for k in range(2, ceiling + 1):
        # Pairs new at level k have |p| = k-1 or |q| = k-1.
        new = [
            (p, q)
            for dp in range(k)
            for dq in range(k)
            if k - 1 in (dp, dq)
            for p in multi_indices(n, dp)
            for q in multi_indices(n, dq)
        ]
        if not all(pair_matches(code, p, q, tol) for p, q in new):
            t_down = k - 1
            break
    return (t_down, d_updown, d_down)


REFERENCE_CODES = [
    (cat_code(2, 2), 8),
    (cat_code(6, 2), 10),
    (cat_code(8, 3), 10),
    (polygon_shell_code(6, 2, (1.0, 2.0)), 20),
    (polygon_shell_code(4, 3, (1.0, 2.0, 3.0)), 14),
    (build_catalog_code("cell16_qutrit"), 8),
    (build_catalog_code("cell8_cell16_qubit"), 8),
    (build_catalog_code("cube_orthoplex", {"D": 4}), 9),
    (build_catalog_code("twoshell_24cell", {"tau": 2.0}), 8),
    (build_catalog_code("twoshell_8_16", {"r1": 1.0, "r2": 2.0}), 8),
]


@pytest.mark.parametrize("code, ceiling", REFERENCE_CODES, ids=lambda v: getattr(v, "name", str(v)))
def test_parameters_and_degree_match_loop_reference(code, ceiling):
    assert code_parameters(code, ceiling).astuple() == reference_code_parameters(code, ceiling)
    assert moment_match_degree(code, ceiling) == reference_match_degree(code, ceiling)


def test_identical_codewords_reach_the_ceiling():
    c = build_catalog_code("orthoplex", {"D": 4}).logicals[0]
    code = CodeSpec(name="twin", logicals=(c, c))
    assert code_parameters(code, 7).astuple() == reference_code_parameters(code, 7) == (7, 7, 7)
    assert code_parameters(code, 1).astuple() == (1, 1, 1)


# 544 points in 4 modes, two codewords of 272.
CO8 = normalize_energy(build_catalog_code("cube_orthoplex", {"D": 8}), 1.0)[0]


@pytest.mark.parametrize("code, ceiling, want", [
    (CO8, 14, (5, 6, 12)),
    # d_down reaches the ceiling: the pure-loss row is streamed to the end,
    # in several blocks of points per codeword at the top levels.
    (CO8, 12, (5, 6, 12)),
    (polygon_shell_code(6, 2, (1.0, 2.0)), 18, (7, 8, 18)),
    (CO8, 1, (1, 1, 1)),
], ids=["co8-14", "co8-12", "hexagon-shells-18", "co8-1"])
def test_streamed_parameters_match_loop_reference(code, ceiling, want):
    assert code_parameters(code, ceiling).astuple() == want
    assert reference_code_parameters(code, ceiling) == want


@pytest.mark.parametrize("ceiling", [14, 30])
def test_parameter_search_memory_does_not_grow_with_the_ceiling(ceiling):
    # The whole box |u| <= 13 took 20.6 MiB here, and |u| <= 29 about 356 MB.
    tracemalloc.start()
    try:
        triple = code_parameters(CO8, ceiling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triple.astuple() == (5, 6, 12)
    assert peak < 8 * 2**20


@st.composite
def symmetrized_codes(draw):
    """K = 2 codes from a random base set: codeword k holds the base set
    rotated by the even (k = 0) or odd (k = 1) powers of exp(2 pi i / 2M)
    on every mode, so moments match up to a degree set by M and the base."""
    modes = draw(st.integers(1, 2))
    size = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    radius = st.floats(0.5, 2.0)
    angle = st.floats(0.0, 2 * np.pi)
    base = np.array([
        [r * np.exp(1j * phi) for r, phi in draw(st.lists(st.tuples(radius, angle),
                                                          min_size=modes, max_size=modes))]
        for _ in range(size)
    ])
    weights = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=size, max_size=size)))
    omega = np.exp(1j * np.pi / order)
    if modes == 1 and draw(st.booleans()):
        # A second shell cancelling the degree-`order` pure-loss moments,
        # as interpolatory shell weights do: then d_down exceeds d_updown.
        ratio = draw(st.floats(1.3, 2.0))
        base = np.vstack([base, base * ratio * omega])
        weights = np.append(weights, weights * ratio ** -order)
    logicals = []
    for k in range(2):
        pts = np.vstack([base * omega ** (2 * j + k) for j in range(order)])
        w = np.tile(weights, order)
        try:
            logicals.append(WeightedConstellation(points=pts, weights=w / w.sum()))
        except ValidationError:
            assume(False)  # coincident points
    return CodeSpec(name="symmetrized", logicals=tuple(logicals))


@settings(max_examples=40, deadline=None)
@given(symmetrized_codes())
def test_random_codes_match_loop_reference(code):
    assert code_parameters(code, 7).astuple() == reference_code_parameters(code, 7)
    assert moment_match_degree(code, 7) == reference_match_degree(code, 7)


def reference_kl_block(code, mu, nu, scale) -> np.ndarray:
    ginv = lowdin_inverse_sqrt(codeword_gram(code, scale))
    raw = np.array([
        [
            sum(
                np.sqrt(wa * wb) * ladder_matrix_element(scale * a, scale * b, mu, nu)
                for a, wa in zip(ck.points, ck.weights)
                for b, wb in zip(cl.points, cl.weights)
            )
            for cl in code.logicals
        ]
        for ck in code.logicals
    ])
    return ginv @ raw @ ginv


@pytest.mark.parametrize("code, max_loss, scale", [
    (cat_code(4, 2), 3, 2.0),
    (polygon_shell_code(4, 2, (1.0, 2.0)), 2, 1.5),
    (build_catalog_code("orthoplex", {"D": 4}), 2, 2.5),
], ids=["cat4", "square_shells", "orthoplex4"])
def test_kl_blocks_match_per_entry_reference(code, max_loss, scale):
    rep = kl_report(code, max_loss=max_loss, scale=scale)
    qs = list(multi_indices_upto(code.modes, max_loss))
    assert set(rep.matrices) == {(mu, nu) for mu in qs for nu in qs}
    for (mu, nu), block in rep.matrices.items():
        ref = reference_kl_block(code, mu, nu, scale)
        assert np.abs(block - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def reference_kl_blocks_all_pairs(code, max_loss, scale) -> dict:
    """Every block from all K^2 codeword pairs of one full overlap matrix,
    the way kl_report formed them before it used the block symmetry."""
    qs = list(multi_indices_upto(code.modes, max_loss))
    pts = scale * code.all_points()
    sqrt_w = np.sqrt(np.concatenate([c.weights for c in code.logicals]))
    norms = (np.abs(pts) ** 2).sum(axis=1)
    overlaps = np.exp(-0.5 * norms[:, None] - 0.5 * norms[None, :] + np.conj(pts) @ pts.T)
    right = np.prod(pts[None, :, :] ** np.array(qs)[:, None, :], axis=2) * sqrt_w
    left = np.conj(right)
    cw = code.codeword_rows()
    raw = np.empty((len(qs), len(qs), code.dim, code.dim), dtype=complex)
    for k in range(code.dim):
        for l in range(code.dim):
            raw[:, :, k, l] = left[:, cw[k]] @ overlaps[cw[k], cw[l]] @ right[:, cw[l]].T
    ginv = lowdin_inverse_sqrt(codeword_gram(code, scale))
    blocks = ginv @ raw @ ginv
    return {(mu, nu): blocks[i, j] for i, mu in enumerate(qs) for j, nu in enumerate(qs)}


@pytest.mark.parametrize("code, max_loss, scale", [
    (cat_code(4, 2), 3, 2.0),
    (build_catalog_code("cube_orthoplex", {"D": 6}), 4, 3.0),
    (build_catalog_code("cell16_qutrit"), 3, 2.0),
    (uneven_code(), 2, 1.0),
], ids=["cat4", "cube_orthoplex6", "cell16_qutrit", "uneven"])
def test_kl_blocks_match_all_pairs_reference(code, max_loss, scale):
    rep = kl_report(code, max_loss=max_loss, scale=scale)
    ref = reference_kl_blocks_all_pairs(code, max_loss, scale)
    assert rep.matrices.keys() == ref.keys()
    for key, block in rep.matrices.items():
        assert np.abs(block - ref[key]).max() <= 1e-12 * max(1.0, np.abs(ref[key]).max())
