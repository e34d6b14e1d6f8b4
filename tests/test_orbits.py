"""The closed-form checks summed over rotation orbits, against the same sums
over every point.

``CodeSpec.orbits`` is the largest phase rotation e^{2 pi i/d} that
permutes a code's points, keeps their weights and maps codewords onto
codewords, with the points in its orbits.  The moment tables
(``moments._BoxMoments``) and the KL blocks (``klcheck._raw_blocks``, from
the orbit data the loss engine shares) sum over its n = N/d orbit
representatives, every codeword over every orbit (an orbit's DFT of the
weights vanishes for the codewords it does not visit).  Each is held here to a plain per-point
computation: the moments to 1e-12 and the KL blocks to 1e-13 of their
largest entry.  A code with no such rotation (d = 1) and a code with a
point at the origin take the same route with one orbit per point.
"""

import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest

from cubacode import build_catalog_code, normalize_energy
from cubacode.constellation import (
    CodeSpec,
    WeightedConstellation,
    resolution,
    scale_code,
)
from cubacode.klcheck import (
    _raw_blocks,
    code_parameters,
    kl_report,
    loss_fidelity,
    lowdin_inverse_sqrt,
)
from cubacode.moments import (
    _BoxMoments,
    _level,
    moment_match_degree,
    multi_indices_upto,
    pair_moments,
    pairs_match_degree,
    weighted_moment,
)
from conftest import pair_nearest


def unit_code(name, **params):
    return normalize_energy(build_catalog_code(name, params or None), 1.0)[0]


def single_mode_code(*codewords):
    """A one-mode code from (points, weights) pairs."""
    return CodeSpec(name="test", logicals=tuple(
        WeightedConstellation(np.asarray(pts, dtype=complex)[:, None], np.asarray(w, dtype=float))
        for pts, w in codewords))


def random_code():
    # Points in general position: no rotation maps them onto themselves.
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    w = rng.uniform(0.5, 1.5, size=(2, 3))
    return single_mode_code(*((pts[k], w[k] / w[k].sum()) for k in range(2)))


def origin_code():
    # A point at the origin is fixed by every rotation.
    return single_mode_code(([0, 2, -2], [0.2, 0.4, 0.4]), ([0, 3j, -3j], [0.2, 0.4, 0.4]))


def octagon_squares_code():
    # The first point's phase circle holds the 8 points of an octagon, but
    # the other codeword, two squares turned against each other, is kept
    # only by quarter turns: the code has order 4, not 8.
    octagon = np.exp(0.25j * np.pi * np.arange(8))
    square = np.exp(0.5j * np.pi * np.arange(4))
    return single_mode_code((octagon, np.full(8, 1 / 8)),
                            (np.concatenate([2 * square, 3 * np.exp(0.3j) * square]),
                             np.full(8, 1 / 8)))


def paired_code():
    # Four codewords; a half turn swaps 0 with 2 and 1 with 3, and no
    # quarter turn maps the code onto itself: each orbit visits two of the
    # four codewords, {0, 2} or {1, 3}.
    a = np.array([1.0, 1.5 * np.exp(0.3j)])
    b = np.array([2.0 * np.exp(0.7j), 2.5 * np.exp(1.1j)])
    w = [0.3, 0.7]
    return single_mode_code((a, w), (b, w), (-a, w), (-b, w))


def uneven_code():
    """Three two-mode codewords of 3, 4 and 5 random points: d = 1."""
    gen = np.random.default_rng(11)
    logicals = []
    for size in (3, 4, 5):
        w = gen.uniform(0.2, 1.0, size)
        logicals.append(WeightedConstellation(gen.normal(size=(size, 2)) + 1j * gen.normal(
            size=(size, 2)), w / w.sum()))
    return CodeSpec(name="uneven", logicals=tuple(logicals))


CODES = {
    "qsc8": lambda: unit_code("qsc8"),
    "qcc8": lambda: unit_code("qcc8"),
    "qsc12": lambda: unit_code("qsc12"),
    "qcc12": lambda: unit_code("qcc12"),
    "qsc24": lambda: unit_code("qsc24"),
    "qcc24": lambda: unit_code("qcc24"),
    "cell16_qutrit": lambda: unit_code("cell16_qutrit"),
    "cube_orthoplex6": lambda: unit_code("cube_orthoplex", D=6),
    "cube_orthoplex8": lambda: unit_code("cube_orthoplex", D=8),
    "cat12_K3": lambda: unit_code("cat", m=12, K=3),
    "polygon_shells": lambda: unit_code("polygon_shells", m=6, p=2, radii=[1.0, 2.0]),
    "cube_orthoplex2": lambda: unit_code("cube_orthoplex", D=2),
    "random": random_code,
    "origin": origin_code,
    "octagon_squares": octagon_squares_code,
    "paired": paired_code,
    "uneven": uneven_code,
}
# The rotation order of each code, and the largest tested box degree of
# its moments (smaller for more modes).
ORDERS = {
    "qsc8": 16, "qcc8": 8, "qsc12": 24, "qcc12": 8, "qsc24": 8, "qcc24": 8, "cell16_qutrit": 4,
    "cube_orthoplex6": 8, "cube_orthoplex8": 8, "cat12_K3": 36, "polygon_shells": 12,
    "cube_orthoplex2": 16, "random": 1, "origin": 1, "octagon_squares": 4, "paired": 2,
    "uneven": 1,
}


def reference_orbits(code):
    """(d, rows) by the search that preceded the phase-circle rule: every
    order up to min(N, 1009) dividing N, largest first, each matched with
    one N x N Gram and walked point by point."""
    pts = code.all_points()
    w = np.concatenate([c.weights for c in code.logicals])
    owner = np.repeat(np.arange(code.dim), [c.size for c in code.logicals])
    N = len(pts)
    eps = 8.0 * np.finfo(float).eps
    tol = eps * max(1.0, float(np.abs(pts).max()))
    if np.abs(pts).max(axis=1).min() == 0.0:
        return 1, np.arange(N)[:, None]
    for d in range(min(N, 1009), 1, -1):
        if N % d:
            continue
        images = np.exp(2j * np.pi / d) * pts
        dist = (np.abs(pts) ** 2).sum(axis=1)[None, :] - 2.0 * (np.conj(images) @ pts.T).real
        perm = dist.argmin(axis=1)
        if (np.bincount(perm).max() > 1 or np.linalg.norm(images - pts[perm], axis=1).max() > tol
                or np.abs(w[perm] - w).max() > eps * w.max()):
            continue
        image = owner[perm]
        first = image[np.searchsorted(owner, np.arange(code.dim))]
        if np.any(image != first[owner]) or np.bincount(first).max() > 1:
            continue
        seen, rows = np.zeros(N, dtype=bool), []
        for a in range(N):
            if not seen[a]:
                orbit = [a]
                for _ in range(d - 1):
                    orbit.append(int(perm[orbit[-1]]))
                seen[orbit] = True
                rows.append(orbit)
        rows = np.array(rows)
        turns = np.exp(2j * np.pi * np.arange(d) / d)[None, :, None]
        if (rows.size == N
                and np.linalg.norm(turns * pts[rows[:, :1]] - pts[rows], axis=2).max() <= tol):
            return d, rows
    return 1, np.arange(N)[:, None]


@pytest.mark.parametrize("name", CODES)
def test_orbit_table_matches_the_exhaustive_search(name):
    code = CODES[name]()
    d, rows = reference_orbits(code)
    assert d == ORDERS[name]
    assert code.orbits.d == d
    assert np.array_equal(code.orbits.rows, rows)


def test_a_scaled_copy_finds_its_own_orbit_table():
    code = build_catalog_code("qcc8")
    scaled = scale_code(code, 2.0)
    assert scaled.orbits is not code.orbits
    assert scaled.orbits.d == code.orbits.d == 8
    assert np.array_equal(scaled.orbits.rows, code.orbits.rows)


def test_nothing_else_holds_an_orbit_table():
    # The table and the data that every check builds on it hold no
    # reference back to the code, so dropping the code frees them at once,
    # with no garbage collection.
    code = build_catalog_code("qcc8")
    orbits = weakref.ref(code.orbits)
    kl_report(code, 2, 1.0)
    moment_match_degree(code, 4)
    loss_fidelity(code, 0.1, 1.0)
    assert {"reps", "x", "half", "b", "b_h", "powers"} <= orbits().__dict__.keys()
    del code
    assert orbits() is None


def test_order_need_not_fill_the_first_phase_circle():
    code = octagon_squares_code()
    pts = code.all_points()
    on_circle = np.isclose(np.abs(pts[:, 0]), np.abs(pts[0, 0]))
    assert on_circle.sum() == 8
    assert code.orbits.d == 4


def term_sums(code, p, q):
    """[i, j] = max over codewords of sum_a w_a |a^p_i| |a^q_j|, the size
    of the terms a moment sums (moments that vanish by symmetry are sums
    of roundoff on that scale)."""
    def table(pts, u):
        return np.prod(np.abs(pts)[None, :, :] ** u[:, None, :], axis=2)
    return np.max([(table(c.points, p) * c.weights) @ table(c.points, q).T
                   for c in code.logicals], axis=0)


@pytest.mark.parametrize("name", CODES)
def test_orbit_moments_equal_per_point_moments(name):
    code = CODES[name]()
    n = code.modes
    degree = {1: 8, 2: 6}.get(n, 4)
    box = _BoxMoments(code)
    indices = np.array(list(multi_indices_upto(n, degree)))
    for dp in range(degree + 1):
        ps, qs = _level(n, dp), slice(0, comb(n + degree - dp, n))
        got = box.moments(ps, qs)
        want = np.array([weighted_moment(c, indices[ps], indices[qs]) for c in code.logicals])
        assert np.all(np.abs(got - want) <= 1e-12 * term_sums(code, indices[ps], indices[qs]))


@pytest.mark.parametrize("name", CODES)
def test_orbit_pure_loss_search_equals_per_point_search(name):
    code = CODES[name]()
    n, stop = code.modes, 9
    level = {}
    for k in range(stop):
        q = np.array(list(multi_indices_upto(n, k)))[_level(n, k)]
        moms = np.array([weighted_moment(c, np.zeros((1, n), dtype=int), q)[0]
                         for c in code.logicals])
        level[k] = np.abs(moms - moms[0]).max()
    want = next((k for k in range(1, stop) if level[k] > 1e-9), stop)
    assert _BoxMoments(code).pure_loss_degree(1, stop, 1e-9) == want


@pytest.mark.parametrize("name", CODES)
def test_match_degree_read_off_the_pair_table_equals_the_search(name):
    # The CLI reads the match degree off the moment table it prints; the
    # search stops at the first failing block.  Both apply one rule.
    code = CODES[name]()
    t_max = {1: 8, 2: 6}.get(code.modes, 4)
    pairs, moms = pair_moments(code, t_max)
    for tol in (1e-9, 1e-3, 0.5):
        assert pairs_match_degree(pairs, moms, tol) == moment_match_degree(code, t_max, tol)


def reference_raw_blocks(code, max_loss, scale):
    """raw[mu, nu, k, l] from one N x N overlap matrix of every point."""
    qs = list(multi_indices_upto(code.modes, max_loss))
    pts = scale * code.all_points()
    sqrt_w = np.sqrt(np.concatenate([c.weights for c in code.logicals]))
    norms = (np.abs(pts) ** 2).sum(axis=1)
    overlaps = np.exp(-0.5 * norms[:, None] - 0.5 * norms[None, :] + np.conj(pts) @ pts.T)
    right = np.prod(pts[None, :, :] ** np.array(qs)[:, None, :], axis=2) * sqrt_w
    cw = code.codeword_rows()
    raw = np.empty((len(qs), len(qs), code.dim, code.dim), dtype=complex)
    for k in range(code.dim):
        for l in range(code.dim):
            raw[:, :, k, l] = np.conj(right[:, cw[k]]) @ overlaps[cw[k], cw[l]] @ right[:, cw[l]].T
    return raw


def gram_ratio(code, scale):
    ev = np.linalg.eigvalsh(reference_raw_blocks(code, 0, scale)[0, 0])
    return ev[0] / ev[-1]


@pytest.mark.parametrize("name", CODES)
def test_orbit_kl_blocks_equal_point_pair_sums(name):
    # At the first scale where the codeword Gram ratio is at least 0.5.
    code = CODES[name]()
    scale = next(s for s in (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)
                 if gram_ratio(code, s) >= 0.5)
    max_loss = 3 if code.modes <= 2 else 2
    want = reference_raw_blocks(code, max_loss, scale)
    got = _raw_blocks(code, max_loss, scale)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # The blocks obey raw[nu, mu, l, k] = conj(raw[mu, nu, k, l]) exactly.
    assert np.array_equal(got, np.conj(got.transpose(1, 0, 3, 2)))


@pytest.mark.parametrize("scale", [1e16, 1e18, 1e40, 1e90])
def test_raw_codeword_gram_is_the_identity_at_large_scales(scale):
    # Far apart, distinct points are orthogonal, so each raw codeword has
    # norm sum_a w_a = 1.  A self-overlap exponent formed as conj(R) . R -
    # |R|^2 read a norm of 0.0588 at scale 1e18 and overflowed at 1e90.
    code = build_catalog_code("qcc8", None)
    assert np.array_equal(_raw_blocks(code, 0, scale)[0, 0], np.eye(code.dim))


@pytest.mark.parametrize("name", CODES)
def test_orbit_resolution_equals_the_all_pairs_scan(name):
    code = CODES[name]()
    assert resolution(code) == pair_nearest(code.all_points())


def test_subnormal_overlap_with_the_first_point():
    # <a_1, a_0> = 1e-320 is subnormal: dividing by its modulus overflowed
    # in the phase-circle count (a RuntimeWarning, an error here).
    code = CodeSpec(name="tiny", logicals=(WeightedConstellation(
        np.array([[1e-160, 0.0], [1e-160, 1.0], [0.0, -1.0]], dtype=complex), np.full(3, 1 / 3)),))
    assert code.orbits.d == 1
    assert resolution(code) == pair_nearest(code.all_points())


def test_kl_report_orthonormalizes_the_orbit_blocks():
    code = unit_code("cube_orthoplex", D=6)
    rep = kl_report(code, 2, 2.5)
    raw = reference_raw_blocks(code, 2, 2.5)
    ginv = lowdin_inverse_sqrt(raw[0, 0])
    for i, mu in enumerate(multi_indices_upto(3, 2)):
        for j, nu in enumerate(multi_indices_upto(3, 2)):
            want = ginv @ raw[i, j] @ ginv
            assert np.abs(rep.matrices[mu, nu] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def blockwise_summary(blocks):
    """The four KL summary numbers from (2, 3)-axis reductions over the
    (Q, Q, K, K) blocks, the way kl_report took them before it reduced
    over flat (Q^2, K^2) views."""
    K = blocks.shape[-1]
    diag = np.diagonal(blocks, axis1=2, axis2=3)
    off = np.abs(blocks - diag[..., None] * np.eye(K)).max(axis=(2, 3))
    unit = np.maximum(np.abs(diag).max(axis=2), 1.0)
    spread = np.abs(diag[..., :, None] - diag[..., None, :]).max(axis=(2, 3))
    return float(off.max()), float((off / unit).max()), float((spread / unit).max()), float(spread.max())


SUMMARY_CODES = {**CODES,
                 "cat4_K1": lambda: unit_code("cat", m=4, K=1),
                 "cat5_K3": lambda: unit_code("cat", m=5, K=3)}


@pytest.mark.parametrize("name", SUMMARY_CODES)
def test_kl_summary_equals_the_blockwise_reductions(name):
    code = SUMMARY_CODES[name]()
    max_loss = 3 if code.modes <= 2 else 2
    rep = kl_report(code, max_loss, 2.0)
    assert (rep.off_diag_max, rep.off_diag_rel, rep.diag_spread_max,
            rep.diag_spread_raw) == blockwise_summary(rep.blocks)
    if code.dim == 1:
        assert rep.off_diag_max == rep.diag_spread_raw == 0.0
    # The block dict: every (q_mu, q_nu) in box order, each the block itself.
    qs = list(multi_indices_upto(code.modes, max_loss))
    assert "matrices" not in vars(rep)
    assert list(rep.matrices) == [(mu, nu) for mu in qs for nu in qs]
    for (mu, nu), block in rep.matrices.items():
        assert np.array_equal(block, rep.blocks[qs.index(mu), qs.index(nu)])


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_code_parameters_memory_is_orbit_sized():
    # A new code object, so its orbit table is found inside the trace.  The
    # per-point monomial tables peaked at 5.3 MiB.
    code = unit_code("cube_orthoplex", D=8)
    triple = []
    assert traced_peak(lambda: triple.append(code_parameters(code, 14))) < 2 * 2**20
    assert triple[0].astuple() == (5, 6, 12)


def test_kl_report_memory_is_orbit_sized():
    # The 544 x 544 point overlaps peaked at 3.65 MiB.
    code = build_catalog_code("cube_orthoplex", {"D": 8})
    assert traced_peak(lambda: kl_report(code, 3, 2.0)) < 2.5 * 2**20
