"""The coherent-span fidelity engine (klcheck.loss_fidelity) against two
independent references: transpose recovery computed from Fock coefficients
(``fock_fidelity``), and an extended-precision mpmath evaluation of the
closed-form algebra with every loss order kept (``exact_fidelity``).

Tolerances are keyed on the conditioning of the code at the given scale:
the ratio of the smallest to the largest eigenvalue of the codeword Gram.
Roundoff in the frames of a photon-number sector that holds several
orbits grows like the inverse of that ratio, so low amplitudes get wider
bounds; the single-mode catalog codes, one orbit per sector, are held to
1e-12 however small the ratio.
"""

import re
import warnings
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubacode import ValidationError, build_catalog_code, normalize_energy
from cubacode.constellation import CodeSpec, Rotation, WeightedConstellation, rotate_code
from cubacode.errors import DegenerateCodewordsError
from cubacode.klcheck import (
    LossFidelity,
    _codeword_grams,
    _log_poisson,
    _sector_grams,
    kl_report,
    loss_fidelities,
    loss_fidelity,
)
from conftest import codeword_gram, coherent_fock


def gram_ratio(code, scale):
    ev = np.linalg.eigvalsh(codeword_gram(code, scale))
    return ev.min() / ev.max()


def tolerance(table, ratio):
    """The larger of two bounds: the first in ``table`` (pairs of least
    ratio and bound, tightest first) whose ratio the code reaches, and
    eps / ratio, the size of the roundoff in the Lowdin factors (measured
    differences reach 0.42 eps / ratio)."""
    bound = next(bound for least, bound in table if ratio >= least)
    return max(bound, np.finfo(float).eps / ratio)


# |F_engine - F_exact| against either reference.  Largest differences
# measured on the single-mode codes at scales 0.8-3, gamma 0.05-0.2, with
# the engine before photon-number sectors: 6.8e-15 (ratio >= 0.5), 7.1e-12
# (ratio >= 1e-4), 3.9e-10 (1e-8 <= ratio < 1e-4), 5.0e-9 at ratio 2.1e-9
# and 3.5e-6 at ratio 9.9e-12 (qsc12 at scales 1 and 0.8); qsc24 at scale 1
# (ratio 3.3e-10): 8.1e-8; cell16_qutrit at scale 3.3 (ratio 0.97):
# 4.4e-16.  With sectors: qsc8 at 0.8 (ratio 7e-7) 7.1e-13 (was 1.8e-10),
# qsc12 at 1 6.9e-10, qsc12 at 0.8 1.2e-6, qsc24 at 1 5.0e-8.  Against
# fock_fidelity on ORACLE_CASES: 2.7e-15 (ratio >= 0.5), 2.4e-13
# (ratio >= 1e-4), 5.2e-9 at ratio 2.6e-8 (qsc24 at 1.2) and 1.4e-6 at
# ratio 9.9e-12 (qsc12 at 0.8); cube_orthoplex D=6 at 0.8 (ratio 1.0e-5):
# 8.6e-12.  With a frame per sector, against exact_fidelity: qsc24 at 1,
# gamma 0.05: -2.6e-8; qsc24 at 0.8, gamma 0.1 (ratio 1.5e-12): -3.3e-8;
# twoshell_24cell at 0.8: -1.8e-10.
EXACT_TOL = ((0.5, 1e-13), (1e-4, 1e-10), (0.0, 1e-8))

# The single-mode catalog codes, with a frame per photon-number sector, in
# tiers like EXACT_TOL's but without eps / ratio: against fock_fidelity on
# ORACLE_CASES, |F - 1| at gamma 0 and exact_fidelity at most 4.8e-15 at
# ratio >= 0.5 (qcc12 at scale 2) and 1.6e-13 below (qcc8 at scale 1,
# gamma 0.2); qsc12 at 0.8 (ratio 9.9e-12) 1.8e-15 (was 1.4e-6), qsc12 at
# 1 1.1e-15 (was 7e-10), qsc8 at 0.8 1.4e-15 (was 9.1e-13).
SINGLE_MODE_TOL = ((0.5, 1e-13), (0.0, 1e-12))
SINGLE_MODE = ("qsc8", "qcc8", "qsc12", "qcc12")


def bound(name, code, scale):
    """The tier of SINGLE_MODE_TOL the single-mode catalog codes reach at
    this scale, else the tolerance from EXACT_TOL."""
    ratio = gram_ratio(code, scale)
    if name in SINGLE_MODE:
        return next(bound for least, bound in SINGLE_MODE_TOL if ratio >= least)
    return tolerance(EXACT_TOL, ratio)


# (code, scale).  The ids end in the per-mode cutoff of the truncated-Fock
# reference these cases were first checked against, so that each case keeps
# its name.
ORACLE_CASES = (
    [pytest.param(name, scale, id=f"{name}-{scale}-80")
     for name in ("qsc8", "qcc8", "qsc12", "qcc12") for scale in (0.8, 1.0, 2.0)]
    + [pytest.param(name, scale, id=f"{name}-{scale}-40")
       for name in ("qsc24", "qcc24", "cell16_qutrit") for scale in (0.9, 1.2, 1.6)]
)


def unit_code(name, **params):
    return normalize_energy(build_catalog_code(name, params or None), 1.0)[0]


def poisson_level(mean, tail):
    """Smallest n with P(X >= n) <= tail for X ~ Poisson(mean)."""
    if mean == 0:
        return 1
    m = np.arange(int(mean + 20 * np.sqrt(mean) + 40))
    log_pmf = m * np.log(mean) - mean - np.concatenate(([0.0], np.cumsum(np.log(m[1:]))))
    return int(np.argmax(np.cumsum(np.exp(log_pmf)[::-1])[::-1] <= tail))


def fock_fidelity(code, gamma, scale):
    """Transpose-recovery entanglement fidelity under pure loss, from Fock
    coefficients.

    The codewords sum_a sqrt(w_a)|scale*a> are kept on the Fock states of
    total photon number below T and orthonormalized by QR into the columns
    of V.  Loss acts on each mode by binomial thinning,
    (E_l c)_m = sqrt(C(m+l, l) gamma^l (1-gamma)^m) c_(m+l); the branches
    losing fewer than L photons in all are stacked into B = [E_l V]_l.
    With G = B^+ B, the logical Kraus operators of recovery after loss are
    blocks of G^(1/2) (taken from the SVD of B's R factor), so
    F = sum_(l,l') |tr [G^(1/2)]_(l,l')|^2 / K^2.  T and L are where the
    Poisson tails of the photon number and of the photons lost by every
    scaled point fall below 1e-20 times the codeword Gram ratio: a
    truncation errs by more where the codewords are nearly parallel.
    """
    n, K = code.modes, code.dim
    energy = max(float((np.abs(scale * c.points) ** 2).sum(axis=1).max()) for c in code.logicals)

    def codewords(tail):
        T = poisson_level(energy, tail)
        kept = np.indices((T,) * n).sum(axis=0) < T
        raw = np.column_stack([
            sum(np.sqrt(w) * coherent_fock(scale * p, T)
                for w, p in zip(c.weights, c.points)) for c in code.logicals])
        return T, kept, raw[kept.reshape(-1)]

    _, _, raw = codewords(1e-20)
    sv = np.linalg.svd(raw, compute_uv=False)
    tail = 1e-20 * min(1.0, (sv[-1] / sv[0]) ** 2)
    T, kept, raw = codewords(tail)
    v = np.zeros(kept.shape + (K,), dtype=complex)
    v[kept] = np.linalg.qr(raw)[0]
    L = poisson_level(gamma * energy, tail)
    thin = [np.sqrt([comb(m + l, l) * gamma**l * (1 - gamma) ** m for m in range(T - l)])
            for l in range(L)]
    losses = [l for l in np.ndindex((L,) * n) if sum(l) < L]
    b = np.empty((int(kept.sum()), len(losses), K), dtype=complex)
    for i, l in enumerate(losses):
        coef = thin[l[0]]
        for lj in l[1:]:
            coef = np.multiply.outer(coef, thin[lj])
        image = np.zeros_like(v)
        image[tuple(slice(T - lj) for lj in l)] = coef[..., None] * v[tuple(slice(lj, T) for lj in l)]
        b[:, i] = image[kept]
    _, s, wh = np.linalg.svd(np.linalg.qr(b.reshape(len(b), -1), mode="r"), full_matrices=False)
    root = (wh.conj().T * s) @ wh
    traces = np.einsum("ikjk->ij", root.reshape(len(losses), K, len(losses), K))
    return float((np.abs(traces) ** 2).sum()) / K**2


@pytest.mark.parametrize("name,scale", ORACLE_CASES)
def test_matches_fock_oracle(name, scale):
    code = unit_code(name)
    tol = bound(name, code, scale)
    for gamma in (0.05, 0.2):
        got = loss_fidelity(code, gamma, scale).fidelity
        want = fock_fidelity(code, gamma, scale)
        assert abs(got - want) <= tol, (gamma, got - want, tol)


def test_three_mode_code_matches_fock_oracle():
    code = unit_code("cube_orthoplex", D=6)
    got = loss_fidelity(code, 0.1, 0.8).fidelity
    want = fock_fidelity(code, 0.1, 0.8)
    assert abs(got - want) <= tolerance(EXACT_TOL, gram_ratio(code, 0.8))


@pytest.mark.parametrize("name", ["qsc8", "qsc12", "qcc12", "qsc24", "qcc24", "cell16_qutrit"])
@pytest.mark.parametrize("scale", [0.8, 1.0, 2.0, 3.3])
def test_no_loss_gives_unit_fidelity(name, scale):
    code = unit_code(name)
    res = loss_fidelity(code, 0.0, scale)
    assert abs(res.fidelity - 1.0) <= bound(name, code, scale)


def test_fidelity_decreases_with_loss():
    code = unit_code("qcc12")
    fids = [loss_fidelity(code, g, 1.6).fidelity for g in (0.0, 0.05, 0.1, 0.2, 0.4)]
    assert all(b < a for a, b in zip(fids, fids[1:]))


def test_rejects_bad_inputs():
    code = unit_code("qsc8")
    for gamma, scale in ((-0.1, 1.0), (1.0, 1.0), (0.1, 0.0)):
        with pytest.raises(ValidationError):
            loss_fidelity(code, gamma, scale)
    # Scales whose sector series is longer than the term cap, or whose
    # length overflows, are named; at the cap qsc8 at nbar = 1 still runs.
    assert loss_fidelity(code, 0.1, 260.0).fidelity > 0.0
    for scale in (270.0, 1e10, 1e200):
        with pytest.raises(ValidationError, match=re.escape(f"scale {scale:g} is too large")):
            loss_fidelity(code, 0.1, scale)


# ---------------------------------------------------------------------------
# Extended-precision reference
# ---------------------------------------------------------------------------


def exact_fidelity(code, gamma, scale, dps=30):
    """Transpose-recovery fidelity from the closed-form Gram of
    ``loss_fidelity`` with every loss order kept, in mpmath.

    With system states |s_a> = |sqrt(1-gamma) a>, environment states
    |e_a> = |sqrt(gamma) a> and orthonormalized codewords
    |L_k> = sum_a c_ak |a>, the branch Gram is G = M^+ S M with
    M[a, (mu,k)] = c_ak <mu|e_a>.  Summing over all mu,
    sum_mu <mu|e_a> <e_b|mu> = <e_b|e_a>, so everything reduces to N x N
    matrices (N points): with C = c c^+, E_ab = <e_a|e_b>, S_ab = <s_a|s_b>
    and P = C o conj(E) = M M^+,

        F = tr(E Z E Z) / K^2,   Z = C o conj(X),
        X = R^+ (R P R^+)^{-1/2} R,   S = R^+ R (Cholesky),

    where X is the matrix geometric mean of S and P^{-1}.  That needs
    gamma > 0: at gamma = 0, E is the all-ones matrix, P = C has rank K,
    and its inverse square root would invert the rounding of its zero
    eigenvalues (qsc12 at scale 0.8 came out 2.6e-6 below F = 1).
    """
    if not gamma > 0:
        raise ValueError(f"exact_fidelity needs gamma > 0, got {gamma}: at gamma = 0 the "
                         "environment Gram is all ones and P = C o conj(E) has rank K")
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        pts = [[mp.mpf(scale) * mp.mpc(complex(z)) for z in p]
               for c in code.logicals for p in c.points]
        w = [mp.mpf(float(x)) for c in code.logicals for x in c.weights]
        owner = [k for k, c in enumerate(code.logicals) for _ in range(c.size)]
        n, K = len(pts), code.dim
        norm = [mp.fsum(abs(x) ** 2 for x in p) for p in pts]
        cross = [[mp.fdot(p, q, conjugate=True) for q in pts] for p in pts]

        def overlaps(f):  # <sqrt(f) a|sqrt(f) b>
            return mp.matrix([[mp.exp(f * (cross[a][b] - (norm[a] + norm[b]) / 2))
                               for b in range(n)] for a in range(n)])

        raw, S, E = overlaps(1), overlaps(1 - mp.mpf(gamma)), overlaps(mp.mpf(gamma))
        gram = mp.matrix(K, K)
        for a in range(n):
            for b in range(n):
                gram[owner[a], owner[b]] += mp.sqrt(w[a] * w[b]) * raw[a, b]
        ev, V = mp.eighe(gram)
        ginv = V * mp.diag([1 / mp.sqrt(e) for e in ev]) * V.H
        c = mp.matrix([[mp.sqrt(w[a]) * ginv[owner[a], k] for k in range(K)] for a in range(n)])
        C = c * c.H
        P = mp.matrix([[C[a, b] * mp.conj(E[a, b]) for b in range(n)] for a in range(n)])
        low = mp.cholesky(S)  # S = low low^+, R = low^+
        om, W = mp.eighe(low.H * P * low)
        B = low * W  # X = B diag(om^-1/2) B^+
        for j in range(n):
            f = 1 / mp.sqrt(mp.sqrt(om[j]))
            for a in range(n):
                B[a, j] *= f
        X = B * B.H
        Z = mp.matrix([[C[a, b] * mp.conj(X[a, b]) for b in range(n)] for a in range(n)])
        EZ = E * Z
        return float(mp.re(mp.fsum(EZ[a, b] * EZ[b, a] for a in range(n) for b in range(n))) / K**2)


@pytest.mark.parametrize("gamma", [0.0, -0.1])
def test_exact_fidelity_rejects_no_loss(gamma):
    with pytest.raises(ValueError, match="needs gamma > 0.*rank K"):
        exact_fidelity(unit_code("qsc12"), gamma, 0.8)


@pytest.mark.parametrize("name,gamma,scale", [
    # Ill-conditioned: codeword Gram eigenvalue ratios 7e-7 and 9.9e-12.
    ("qsc8", 0.2, 0.8),
    ("qsc12", 0.05, 0.8),
])
def test_fock_oracle_matches_extended_precision(name, gamma, scale):
    # The Fock-coefficient reference's own error: 4e-16 and 1.9e-15.
    code = unit_code(name)
    assert abs(fock_fidelity(code, gamma, scale) - exact_fidelity(code, gamma, scale)) <= 1e-13


@pytest.mark.parametrize("name,gamma,scale,frozen", [
    ("qsc8", 0.1, 1.0, 0.82805006372882),
    ("qsc24", 0.1, 1.0, 0.76575651421848),
    # High amplitude and loss, where a truncated total loss order would
    # have to reach 27, 37 and 18; cell16_qutrit is a two-mode, K = 3 code.
    ("qcc8", 0.2, 3.0, None),
    ("qcc12", 0.2, 3.0, None),
    ("cell16_qutrit", 0.2, 3.3, None),
    # kappa |x|max = 1529, where the convolved codeword sector Grams are
    # 3.8e-14 from the extended-precision series; measured 0.
    ("qcc12", 0.1, 15.0, None),
    # Ill-conditioned: codeword Gram eigenvalue ratio 7e-7.
    ("qsc8", 0.2, 0.8, None),
])
def test_matches_extended_precision(name, gamma, scale, frozen):
    code = unit_code(name)
    exact = exact_fidelity(code, gamma, scale)
    if frozen is not None:
        assert abs(exact - frozen) < 1e-13
    got = loss_fidelity(code, gamma, scale).fidelity
    assert abs(got - exact) <= bound(name, code, scale), got - exact


# ---------------------------------------------------------------------------
# Photon-number sectors and batches
# ---------------------------------------------------------------------------


def single_mode_code(*codewords):
    """A one-mode code from (points, weights) pairs."""
    return CodeSpec(name="test", logicals=tuple(
        WeightedConstellation(np.asarray(pts, dtype=complex)[:, None], np.asarray(w, dtype=float))
        for pts, w in codewords))


def random_code():
    # Two codewords of three points in general position: no rotation maps
    # the points onto themselves.
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    w = rng.uniform(0.5, 1.5, size=(2, 3))
    return single_mode_code(*((pts[k], w[k] / w[k].sum()) for k in range(2)))


def squares_code():
    # 4-gons at radii 1 and 2: e^{2 pi i n/4} fixes each codeword.
    square = np.exp(0.5j * np.pi * np.arange(4))
    return single_mode_code((square, np.full(4, 0.25)), (2 * square, np.full(4, 0.25)))


def cycled_code():
    # Two triangles, one turned and scaled, with their vertices dealt to
    # three codewords with an offset of one: e^{2 pi i n/3} cycles the
    # codewords, and no reflection maps the code onto itself.
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    inner, outer = w, 1.6 * np.exp(0.4j) * np.roll(w, 1)
    return single_mode_code(*(([inner[k], outer[k]], [0.3, 0.7]) for k in range(3)))


@pytest.mark.parametrize("name,params,d", [
    ("qsc8", {}, 16), ("qcc8", {}, 8), ("qsc12", {}, 24), ("qcc12", {}, 8),
    ("qsc24", {}, 8), ("qcc24", {}, 8), ("cell16_qutrit", {}, 4),
    ("cube_orthoplex", {"D": 6}, 8), ("cube_orthoplex", {"D": 8}, 8),
], ids=lambda v: str(v))
def test_sector_count_of_catalog_codes(name, params, d):
    assert unit_code(name, **params).orbits.d == d


def test_orbit_tables_are_cached_by_code_identity():
    # Codes compare and hash by identity: equal fields would compare arrays.
    code = unit_code("qcc8")
    assert code == code and code != unit_code("qcc8")
    assert code.orbits is code.orbits


def test_sector_count_without_symmetry():
    assert random_code().orbits.d == 1
    # A point at the origin is fixed by every rotation.
    origin = single_mode_code(([0, 2, -2], [0.5, 0.25, 0.25]), ([0, 3j, -3j], [0.5, 0.25, 0.25]))
    assert origin.orbits.d == 1


def test_sector_count_needs_codewords_mapped_onto_codewords():
    # Multiplying by i permutes the four points but sends {1, i} to
    # {i, -1}, which is no codeword; multiplying by -1 swaps the codewords.
    code = single_mode_code(([1, 1j], [0.5, 0.5]), ([-1, -1j], [0.5, 0.5]))
    assert code.orbits.d == 2
    assert squares_code().orbits.d == 4
    assert cycled_code().orbits.d == 3


@pytest.mark.parametrize("make", [random_code, squares_code, cycled_code],
                         ids=["random", "squares", "cycled"])
@pytest.mark.parametrize("gamma,scale", [(0.1, 1.0), (0.2, 1.7)])
def test_sectors_match_extended_precision(make, gamma, scale):
    code = make()
    exact = exact_fidelity(code, gamma, scale)
    got = loss_fidelity(code, gamma, scale).fidelity
    assert abs(got - exact) <= tolerance(EXACT_TOL, gram_ratio(code, scale)), got - exact


def test_nearly_symmetric_code_gets_one_sector():
    # qsc12 with every point moved by 3e-14 in a random direction: its
    # points match the rotations to some 250 ulps, beyond the rounding of
    # their coordinates, so it is not symmetric: sector Grams built from
    # rotated points would belong to a slightly different code, a
    # difference the inverse Gram ratio (2e-9 at scale 1) amplifies.
    code = unit_code("qsc12")
    rng = np.random.default_rng(7)
    code = CodeSpec(name="test", logicals=tuple(
        WeightedConstellation(c.points + 3e-14 * np.exp(2j * np.pi * rng.random(c.points.shape)),
                              c.weights)
        for c in code.logicals))
    assert code.orbits.d == 1
    ratio = gram_ratio(code, 1.0)
    assert ratio < 1e-8
    exact = exact_fidelity(code, 0.1, 1.0)
    got = loss_fidelity(code, 0.1, 1.0).fidelity
    assert abs(got - exact) <= tolerance(EXACT_TOL, ratio), got - exact


@pytest.mark.parametrize("make,points,degenerate", [
    (lambda: unit_code("qcc24"), [(0.05, 1.2), (0.1, 1.6), (0.2, 2.0), (0.0, 2.5)], False),
    # One batch of 7 points, and 3 points of a 19-orbit code.
    (lambda: unit_code("qcc24"), [(0.1, s) for s in np.linspace(0.9, 2.1, 7)], False),
    (lambda: unit_code("cube_orthoplex", D=6), [(0.0, 0.8), (0.1, 1.6), (0.2, 3.3)], False),
    # Several points per batch, in more than one batch, with series of
    # different lengths and a degenerate scale among them.
    (lambda: unit_code("qsc8"),
     [(g, s) for g in (0.0, 0.1, 0.3) for s in (0.3, 0.9, 1.7, 2.6, 3.3, 4.5)], True),
    # One sector (d = 1), several points per batch.
    (random_code, [(0.0, 1.0), (0.1, 0.7), (0.2, 1.7), (0.05, 3.0)], False),
    # 24 sectors of one orbit, ten points in one batch.
    (lambda: unit_code("qsc12"), [(g, s) for g in (0.05, 0.2) for s in np.linspace(0.9, 3.3, 5)],
     False),
    # Series of one, one, two and three chunks point by point, three in
    # the batch: the chunks' phase carry and sums across chunk counts.
    (lambda: unit_code("qcc12"), [(0.1, s) for s in (0.8, 2.0, 3.3, 4.5)], False),
], ids=["qcc24", "qcc24-sweep", "cube_orthoplex6", "qsc8", "random", "qsc12-sweep", "qcc12-chunks"])
def test_batch_equals_single_points_bit_for_bit(make, points, degenerate):
    code = make()
    batch = loss_fidelities(code, points)
    for (gamma, scale), got in zip(points, batch):
        try:
            want = loss_fidelity(code, gamma, scale)
        except DegenerateCodewordsError as exc:
            assert isinstance(got, DegenerateCodewordsError) and str(got) == str(exc)
        else:
            assert got == want
    assert any(isinstance(got, DegenerateCodewordsError) for got in batch) == degenerate


def sector_series(orbits, kappa, dps=40):
    """_sector_grams' [s, o, o'] for one kappa, summed term by term in
    mpmath from the orbit table's own x and half."""
    mp = pytest.importorskip("mpmath")
    d, n = orbits.d, len(orbits.x)
    out = np.zeros((d, n, n), dtype=complex)
    with mp.workdps(dps):
        for o in range(n):
            for o2 in range(n):
                z = mp.mpf(kappa) * mp.mpc(complex(orbits.x[o, o2]))
                lam = float(abs(z))
                sums, term = [mp.mpc(0)] * d, mp.mpc(1)
                for m in range(int(lam + 12 * np.sqrt(lam) + 40 + d)):
                    sums[m % d] += term
                    term = term * z / (m + 1)
                weight = mp.exp(-mp.mpf(kappa) * mp.mpf(float(orbits.half[o, o2])))
                out[:, o, o2] = [complex(v * weight) for v in sums]
    return out


def test_log_poisson_matches_extended_precision():
    # m within 12 sqrt(lam) of lam for lam from 1e-3 to 5000 (m = 0 where
    # lam is small), m <= 15 (the table of A(m)) and small-lam tails m > 15,
    # against m log lam - lam - log m! at 40 digits, with no floating-point
    # warning.  The bound is 8 ulps of max(lam, 1) + |log pi|; measured 3.0
    # (4.3 for the saddle-point form with a series for the deviance it
    # replaced).  The direct sum with lgamma reads 8.0 here: the qcc12
    # scale-15 case of test_sector_grams_match_extended_precision is the
    # one that rules it out.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2020)
    lam = 10 ** np.concatenate([rng.uniform(-3, np.log10(5000), 300), rng.uniform(-3, np.log10(50), 100),
                                rng.uniform(-3, 0, 100)])
    m = np.concatenate([np.rint(lam[:300] + 12 * np.sqrt(lam[:300]) * rng.uniform(-1, 1, 300)),
                        rng.integers(0, 16, 100), rng.integers(16, 61, 100)])
    m = np.maximum(m, 0).astype(int)
    assert (m == 0).any() and (m > 15).sum() > 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_poisson(m, lam)
    with mp.workdps(40):
        want = np.array([float(int(k) * mp.log(mp.mpf(x)) - mp.mpf(x) - mp.loggamma(int(k) + 1))
                         for k, x in zip(m, lam)])
    units = np.abs(got - want) / (np.finfo(float).eps * (np.maximum(lam, 1.0) + np.abs(want)))
    assert units.max() <= 8.0, units.max()


@pytest.mark.parametrize("name,params,scale", [
    # Sectors down to 7e-28 (qsc12) and 1.5e-123 (qcc24); measured 2.7e-16
    # and 4.3e-16.
    ("qsc12", {}, 0.8),
    ("qcc24", {}, 0.8),
    # kappa |x|max = 1529, where e^(kappa |x|max) overflows; measured
    # 4.0e-14 (the log-domain series of an earlier form: 1.1e-12).
    ("qcc12", {}, 15.0),
    # 19 orbits, among them orthogonal ones (x = 0); measured 1.7e-15.
    ("cube_orthoplex", {"D": 6}, 3.3),
], ids=["qsc12-0.8", "qcc24-0.8", "qcc12-15", "cube_orthoplex6-3.3"])
def test_sector_grams_match_extended_precision(name, params, scale):
    orbits = unit_code(name, **params).orbits
    got = _sector_grams(orbits, np.array([scale**2]))[0]
    want = sector_series(orbits, scale**2)
    assert np.all(got[want == 0] == 0)
    err = np.abs(got - want)[want != 0] / np.abs(want[want != 0])
    assert err.max() <= 1e-13, err.max()


@pytest.mark.parametrize("name,params,scale,bound", [
    # Measured 2.5e-15, 6.1e-16, 6.7e-16 and 2.1e-15 against sector_series,
    # where the direct series reads 2.7e-16, 4.3e-16, 2.2e-16 and 1.7e-15.
    ("qsc12", {}, 0.8, 1e-14),
    ("qcc24", {}, 0.8, 1e-14),
    ("qsc24", {}, 0.9, 1e-14),
    ("cube_orthoplex", {"D": 6}, 3.3, 1e-14),
    # kappa |x|max = 1529: measured 3.8e-14 (the direct series: 4.0e-14).
    ("qcc12", {}, 15.0, 5e-13),
], ids=["qsc12-0.8", "qcc24-0.8", "qsc24-0.9", "cube_orthoplex6-3.3", "qcc12-15"])
def test_codeword_grams_are_the_beam_splitter_convolution(name, params, scale, bound):
    # The codeword sector Grams at kappa = s^2, convolved from the
    # environment and damped ones at gamma = 0.1, against the extended-
    # precision series and against _sector_grams' own series at s^2.
    orbits = unit_code(name, **params).orbits
    kappa = scale**2
    grams = _sector_grams(orbits, np.array([0.1 * kappa, 0.9 * kappa]))
    got = _codeword_grams(grams[:1], grams[1:])[0]
    for want in (sector_series(orbits, kappa), _sector_grams(orbits, np.array([kappa]))[0]):
        assert np.all(got[want == 0] == 0)
        err = np.abs(got - want)[want != 0] / np.abs(want[want != 0])
        assert err.max() <= bound, err.max()


@pytest.mark.parametrize("name,params", [
    ("qsc8", {}), ("qcc8", {}), ("qsc12", {}), ("qcc12", {}), ("qsc24", {}), ("qcc24", {}),
    ("cat", {"m": 8}), ("cat", {"m": 12, "K": 3}), ("cell16_qutrit", {}),
    ("cell8_cell16_qubit", {}), ("cube_orthoplex", {"D": 4}), ("cube_orthoplex", {"D": 6}),
    ("hypercube", {"D": 4}), ("orthoplex", {"D": 4}),
    ("polygon_shells", {"m": 6, "p": 2, "radii": [1.0, 2.0]}),
    ("twoshell_24cell", {"tau": 2.0}), ("twoshell_8_16", {"r1": 1.0, "r2": 1.5}),
], ids=lambda v: str(v))
def test_sector_frames_number_the_codewords(name, params):
    # Any count of sector frames other than K raises NumericalFailure; only
    # degenerate codewords (cat m=12 K=3 below scale 1.5) may fail instead.
    code = unit_code(name, **params)
    for res in loss_fidelities(code, [(0.1, s) for s in np.linspace(0.8, 6.0, 27)]):
        assert isinstance(res, (LossFidelity, DegenerateCodewordsError)), res


# ---------------------------------------------------------------------------
# Small loss: the KL blocks give the first-order infidelity
# ---------------------------------------------------------------------------

# |c_KL - c_engine| for the first-order coefficient of 1 - F in gamma.  The
# engine's (1 - F)/gamma at gamma = 1e-5 divides its roundoff in F by
# gamma, so the bound is absolute.  Largest measured differences: 6.1e-8
# at ratio >= 1e-6 (cell16_qutrit at scale 3, 1.9e-5 relative; the others
# at most 3.7e-8), and 8.8e-5 at ratio 3.3e-10 (qsc24 at scale 1, 2.9e-5
# relative).
FIRST_ORDER_TOL = ((1e-6, 2e-7), (0.0, 3e-4))


@pytest.mark.parametrize("name,params", [
    ("qsc8", {}), ("qcc8", {}), ("qcc12", {}), ("qcc24", {}), ("qsc24", {}),
    ("cell16_qutrit", {}), ("twoshell_24cell", {"tau": 2}), ("cube_orthoplex", {"D": 6}),
], ids=lambda v: str(v))
@pytest.mark.parametrize("scale", [1.0, 2.0, 3.0])
def test_first_order_infidelity_from_the_kl_blocks(name, params, scale):
    # To first order in gamma, transpose recovery after pure loss leaves
    # 1 - F = gamma (mean(nu) - mean(sqrt(nu))^2), nu the eigenvalues of the
    # code-space photon number sum_j P a_j^+ a_j P: the (e_j, e_j) blocks of
    # the orthonormalized KL blocks.  The engine's (1 - F)/gamma is
    # Richardson-extrapolated to gamma = 0 from 1e-4 and 1e-5.
    code = unit_code(name, **params)
    n = code.modes
    blocks = kl_report(code, 1, scale).blocks
    # The single-loss blocks (0, e_j) vanish (measured exactly 0).
    assert np.abs(blocks[0, 1:]).max() <= 1e-13
    nu = np.linalg.eigvalsh(blocks[range(1, n + 1), range(1, n + 1)].sum(axis=0))
    want = nu.mean() - np.sqrt(np.maximum(nu, 0.0)).mean() ** 2
    coarse, fine = loss_fidelities(code, [(1e-4, scale), (1e-5, scale)])
    got = (10.0 * (1.0 - fine.fidelity) / 1e-5 - (1.0 - coarse.fidelity) / 1e-4) / 9.0
    tol = next(bound for least, bound in FIRST_ORDER_TOL if coarse.gram_ratio >= least)
    assert abs(got - want) <= tol, (got, want)


# |F(U code) - F(code)| at gamma = 0.1 for a Haar-random passive unitary U:
# pure loss at one rate on every mode commutes with U, and so does transpose
# recovery, so the two are equal in exact arithmetic and their spread is a
# lower bound on the engine's error.  Largest spreads over 400 Haar U per
# code (unit energy, scales 0.9, 1.5, 2.5, 3.5), by codeword Gram ratio:
# 1.0e-14 at ratio >= 1e-2 (twoshell_24cell at 2.5); 4.6e-13 at ratio >=
# 1e-4 (twoshell_24cell at 1.5, ratio 1.2e-3; qcc24 at 0.9, ratio 1.4e-4,
# 1.0e-14; cell16_qutrit at 0.9 5.2e-14); 1.6e-10 at ratio >= 1e-8 (qsc24
# at 1.5, ratio 5.5e-6; twoshell_24cell at 0.9, ratio 3.6e-7, 6.2e-11;
# cube_orthoplex D=6 at 0.9, ratio 2.7e-5, 7.4e-14); and 2.4e-8 for qsc24
# at 0.9 (ratio 2.6e-11), the size of the engine's known error there
# against exact_fidelity (2.0e-9 above it at gamma 0.1).  Each bound is
# within 10 times its regime's largest spread.
COVARIANCE_TOL = ((1e-2, 1e-13), (1e-4, 4e-12), (1e-8, 1e-9), (0.0, 2e-7))
COVARIANCE_CODES = {"qcc24": {}, "qsc24": {}, "cube_orthoplex": {"D": 6}, "cell16_qutrit": {},
                    "twoshell_24cell": {"tau": 2}}
COVARIANCE_POINTS = [(0.1, scale) for scale in (0.9, 1.5, 2.5, 3.5)]


@lru_cache(maxsize=None)
def covariance_reference(name):
    """A unit-energy code and its fidelities at COVARIANCE_POINTS."""
    code = unit_code(name, **COVARIANCE_CODES[name])
    return code, loss_fidelities(code, COVARIANCE_POINTS)


def haar_unitary(n, seed):
    """A Haar-random n x n unitary: the QR factor of a complex Gaussian
    matrix, its columns' phases fixed by R's diagonal (Mezzadri 2007)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(COVARIANCE_CODES)), seed=st.integers(0, 2**32 - 1))
def test_passive_unitary_covariance(name, seed):
    code, want = covariance_reference(name)
    turned = rotate_code(code, Rotation(haar_unitary(code.modes, seed)))
    for ref, got in zip(want, loss_fidelities(turned, COVARIANCE_POINTS)):
        tol = next(bound for least, bound in COVARIANCE_TOL if ref.gram_ratio >= least)
        assert abs(got.fidelity - ref.fidelity) <= tol, (ref.gram_ratio, got.fidelity)
