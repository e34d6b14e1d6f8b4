"""Error-correction condition checks in exact closed form.

Coherent states have analytic overlaps and ladder-operator matrix elements:

    <a|b>                      = exp(-|a|^2/2 - |b|^2/2 + a* . b)
    <a| prod (a_j^+)^p a_j^q |b> = prod (a_j*)^p_j b_j^q_j * <a|b>

so every block <C_k| E_mu^+ E_nu |C_l> of the correction condition for the
pure-loss error set is a finite weighted sum of such terms, with no Fock
truncation involved.  All blocks are formed at once: with monomial tables
F_k (one row per loss pattern, one column per point of codeword k),

    raw[mu, nu, k, l] = ((sqrt(w_k) conj(F_k)) @ <a|b>_kl @ (sqrt(w_l) F_l).T)[mu, nu].

The same algebra gives the benchmark's transpose-recovery fidelity under
pure loss (``loss_fidelity``, batched as ``loss_fidelities``): loss maps
each coherent state to a product of a damped coherent state and a coherent
environment state, so indexing the loss branches by an eigenbasis of the
environment states' Gram keeps every loss order.  When a phase rotation
e^{2 pi i/d} permutes a code's points and its codewords, the work splits
into d sectors of photon number mod d, each with N/d x N/d eigenproblems
(N points), and the code space is taken one sector at a time; d = 1 is a
single sector holding every point.

The asymptotic (large-energy) parameters reduce to weighted-moment
matching and are computed by exhaustive enumeration over stacks of
multi-indices, stopping at the first degree that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .constellation import CodeSpec, _match_points, as_amplitude
from .errors import DegenerateCodewordsError, NumericalFailure, ValidationError
from .moments import (
    _BoxMoments,
    _check_tol,
    _level,
    _match_degree,
    _monomials,
    multi_indices_upto,
)


def coherent_overlap(a, b) -> complex:
    """Inner product of two coherent states with amplitude vectors a, b."""
    a = as_amplitude(a)
    b = as_amplitude(b)
    if a.shape != b.shape:
        raise ValidationError("amplitude points must share the mode count")
    return complex(
        np.exp(-0.5 * np.vdot(a, a).real - 0.5 * np.vdot(b, b).real + np.vdot(a, b))
    )


def ladder_matrix_element(a, b, p: Sequence[int], q: Sequence[int]) -> complex:
    """Exact matrix element <a| prod_j (a_j^+)^p_j a_j^q_j |b>."""
    a = as_amplitude(a)
    b = as_amplitude(b)
    p = np.asarray(p, dtype=int)
    q = np.asarray(q, dtype=int)
    if not (a.shape == b.shape == p.shape == q.shape):
        raise ValidationError("amplitudes and multi-indices must share the mode count")
    return complex(np.prod(np.conj(a) ** p * b**q) * coherent_overlap(a, b))


def _pairwise_overlaps(pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    # Gram of coherent states: exp(-|a|^2/2 - |b|^2/2 + a* . b), vectorized,
    # with the exponent formed and exponentiated in place.
    na = (np.abs(pts_a) ** 2).sum(axis=1)
    nb = (np.abs(pts_b) ** 2).sum(axis=1)
    out = np.conj(pts_a) @ pts_b.T
    out += -0.5 * na[:, None] - 0.5 * nb[None, :]
    return np.exp(out, out=out)


def _stacked(code: CodeSpec, scale: float) -> tuple:
    """Every point times scale (N x n, codeword by codeword) and the square
    roots of their weights."""
    return scale * code.all_points(), np.sqrt(np.concatenate([c.weights for c in code.logicals]))


def _gram_from_overlaps(overlaps: np.ndarray, sqrt_w: np.ndarray, rows: list) -> np.ndarray:
    # G[k, l] = sqrt(w_k) . overlaps[rows_k, rows_l] . sqrt(w_l) for k <= l,
    # with the lower triangle the conjugate of the upper, so G is exactly
    # Hermitian (ill-conditioned Grams amplify any roundoff asymmetry).
    K = len(rows)
    g = np.empty((K, K), dtype=complex)
    for k in range(K):
        for l in range(k, K):
            g[k, l] = sqrt_w[rows[k]] @ overlaps[rows[k], rows[l]] @ sqrt_w[rows[l]]
            g[l, k] = np.conj(g[k, l])
    return g


def codeword_gram(code: CodeSpec, scale: float = 1.0) -> np.ndarray:
    """Gram matrix of the raw codeword vectors sum_a sqrt(w_a) |scale*a>."""
    pts, sqrt_w = _stacked(code, scale)
    return _gram_from_overlaps(_pairwise_overlaps(pts, pts), sqrt_w, code.codeword_rows())


def lowdin_inverse_sqrt(gram: np.ndarray, rel_floor: float = 1e-12) -> np.ndarray:
    """Hermitian inverse square root of a Gram matrix (symmetric
    orthogonalization).  Raises when the Gram is numerically singular."""
    vals, vecs = np.linalg.eigh(gram)
    if vals[0] <= rel_floor * vals[-1]:
        raise DegenerateCodewordsError(
            f"degenerate codewords: Gram eigenvalue ratio {vals[0] / vals[-1]:.3e}")
    return (vecs * (1.0 / np.sqrt(vals))) @ np.conj(vecs.T)


@dataclass(frozen=True)
class KLReport:
    """Blocks <C_k|E_mu^+ E_nu|C_l> for the pure-loss error set, after
    symmetric orthonormalization of the codewords at the given scale.

    ``matrices`` maps (q_mu, q_nu) to the K x K block.  ``off_diag_max`` is
    the largest |k != l| entry over all blocks; ``off_diag_rel`` divides
    each block's off-diagonal maximum by max(its largest diagonal
    magnitude, 1) before taking the maximum, removing the polynomial growth
    of high-order blocks.  ``diag_spread_max`` is the largest per-block
    diagonal spread normalized the same way (the orthonormalized identity
    block sets the unit, so blocks whose diagonals vanish asymptotically
    report ~0 instead of 0/0 noise); ``diag_spread_raw`` is unnormalized.
    """

    error_set_label: str
    matrices: Dict[Tuple[tuple, tuple], np.ndarray]
    off_diag_max: float
    off_diag_rel: float
    diag_spread_max: float
    diag_spread_raw: float
    scale: float


def kl_report(code: CodeSpec, max_loss: int, scale: float) -> KLReport:
    """Evaluate the correction-condition blocks for all loss errors with at
    most ``max_loss`` total lost photons, exactly from coherent-state
    matrix elements."""
    if not 0.0 < scale < np.inf:
        raise ValidationError("scale must be positive and finite")
    if max_loss < 0:
        raise ValidationError("max_loss must be nonnegative")
    K, n = code.dim, code.modes
    qs = list(multi_indices_upto(n, int(max_loss)))
    # raw[mu, nu, k, l] = <C_k| prod (a^+)^mu a^nu |C_l>, expanded over point
    # pairs: (sqrt(w_k) conj(F_k)) @ overlaps_kl @ (sqrt(w_l) F_l).T.  Only
    # the overlap blocks with k <= l are formed: the rest follow from
    # raw[nu, mu, l, k] = conj(raw[mu, nu, k, l]).
    pts, sqrt_w = _stacked(code, scale)
    cw = code.codeword_rows()
    right = _monomials(pts, int(max_loss)) * sqrt_w
    left = np.conj(right)
    raw = np.empty((len(qs), len(qs), K, K), dtype=complex)
    for k in range(K):
        for l in range(k, K):
            overlaps = _pairwise_overlaps(pts[cw[k]], pts[cw[l]])
            raw[:, :, k, l] = left[:, cw[k]] @ overlaps @ right[:, cw[l]].T
            if l > k:
                raw[:, :, l, k] = raw[:, :, k, l].conj().T
    # qs[0] is the zero multi-index, so raw[0, 0] is the codeword Gram.
    ginv = lowdin_inverse_sqrt(raw[0, 0])
    blocks = ginv @ raw @ ginv

    diag = np.diagonal(blocks, axis1=2, axis2=3)
    off = np.abs(blocks - diag[..., None] * np.eye(K)).max(axis=(2, 3))
    unit = np.maximum(np.abs(diag).max(axis=2), 1.0)
    spread = np.abs(diag[..., :, None] - diag[..., None, :]).max(axis=(2, 3))
    matrices = {(mu, nu): blocks[i, j] for i, mu in enumerate(qs) for j, nu in enumerate(qs)}
    return KLReport(
        error_set_label=f"loss<={max_loss}",
        matrices=matrices,
        off_diag_max=float(off.max()),
        off_diag_rel=float((off / unit).max()),
        diag_spread_max=float((spread / unit).max()),
        diag_spread_raw=float(spread.max()),
        scale=float(scale),
    )


@dataclass(frozen=True)
class LossFidelity:
    """Transpose-recovery fidelity under pure loss, with the codeword
    Gram's min/max eigenvalue ratio.  On multi-mode codes, roundoff in the
    sector frames puts an error of up to about 0.42 eps / gram_ratio on
    the fidelity; the single-mode catalog codes are within 1e-12 of an
    extended-precision evaluation at every ratio."""

    fidelity: float
    gram_ratio: float


# Points match under a rotation when every orbit agrees with the rotated
# copies of its first point to this many ulps of the largest amplitude, and
# weights to this many ulps of the largest weight: the size of the rounding
# in the catalog's coordinates (3.2 ulps at most, on qsc12).  The sector
# Grams are those of the rotated first points, so a looser match would
# evaluate a slightly different code, a difference the inverse Gram ratio
# amplifies like roundoff in the inputs; a missed match only costs speed.
_ORBIT_ULPS = 8.0
# A batch's largest arrays (the branch factors M, Q and y, 16 K N n bytes per
# point for N points in n orbits) stay under this many bytes, and so does a
# chunk of the power table; longer batches are split.  qcc24 and qsc24 batch
# 7 points, qsc8 128; cube_orthoplex --D 6 (92 KB per point) and larger codes
# go one point at a time.  The batches carry the per-call cost of the scale
# searches.  Larger batches ran no faster and raised the peak RSS.
_BATCH_BYTES = 1 << 16
# A chunk of the sector series holds at most this many terms (whole blocks
# of d terms, at least one block).  Each point of a batch weights every
# term of a chunk: 128 terms cover kappa |x| up to about 40 in one chunk,
# and 1008-term chunks raised a 14-point qcc8 batch's peak memory from 0.9
# to 2.3 MiB.  The cap also keeps _sector_grams from overflowing: a chunk
# of L terms has a first exponent up to L log 2, and this cap with d <= 1009
# (_orbits) keeps L log 2 <= 700.  _BATCH_BYTES alone would not: it
# allows qsc8 (d = 8, one overlap entry) 4096-term chunks.
_CHUNK_TERMS = 128


@dataclass(frozen=True)
class _Powers:
    """The kappa-independent part of the sector series of one code.

    The entries (o, o') of the orbit overlaps x are sorted into bands by
    their binary exponent: band i holds the entries ``order[lo:hi]``
    (``bounds[i]``, ``bounds[i + 1]``) with scale/2 <= |x| < scale for
    ``scales[i]``, a power of two (x = 0 goes with the smallest normal
    number); ``band`` is each sorted entry's band.  Each entry's unit power
    is u = x / scale, exact, with 1/2 <= |u| < 1 or u = 0.  ``table[s, t]``
    holds u^(t d + s) for the terms of one chunk (``group`` blocks of d
    terms), as pairs of reals; ``step_turn`` is the phase of u^L, L =
    group d, which carries a chunk's phases to the next.  ``abs_x``,
    ``drop`` = |x| - half and ``log_u`` = log |u| (log of the smallest
    normal number for u = 0) are in the sorted order.
    """

    group: int
    order: np.ndarray
    bounds: np.ndarray
    scales: np.ndarray
    band: np.ndarray
    table: np.ndarray
    abs_x: np.ndarray
    drop: np.ndarray
    log_u: np.ndarray
    step_turn: np.ndarray


def _power_table(x: np.ndarray, half: np.ndarray, d: int) -> _Powers:
    E = x.size
    group = max(1, min(_BATCH_BYTES // (16 * E * d), _CHUNK_TERMS // d))
    L = group * d
    tiny = np.finfo(float).tiny
    abs_x = np.abs(x).ravel()
    scale_exp = np.frexp(np.maximum(abs_x, tiny))[1]
    order = np.argsort(scale_exp, kind="stable")
    scale_exp, abs_x = scale_exp[order], abs_x[order]
    exps, starts, band = np.unique(scale_exp, return_index=True, return_inverse=True)
    u = x.ravel()[order] / np.exp2(scale_exp.astype(float))
    powers = np.empty((L, E), dtype=complex)
    powers[0] = 1.0
    powers[1:] = u
    np.cumprod(powers, axis=0, out=powers)
    step = powers[-1] * u
    mod = np.abs(step)
    table = np.ascontiguousarray(powers.reshape(group, d, E).transpose(1, 0, 2))
    return _Powers(
        group=group, order=order, bounds=np.append(starts, E), scales=np.exp2(exps.astype(float)),
        band=band, table=table.view(float), abs_x=abs_x, drop=abs_x - half.ravel()[order],
        log_u=np.log(np.maximum(np.abs(u), tiny)),
        step_turn=np.where(mod > 0.0, step / np.where(mod > 0.0, mod, 1.0), 1.0),
    )


@dataclass(frozen=True)
class _Orbits:
    """The largest phase rotation e^{2 pi i/d} that permutes a code's
    points, keeps their weights and maps each codeword's points onto one
    codeword, and the code's points arranged in its orbits.

    ``rows[o, t]`` is the row of e^{2 pi i t/d} r_o in ``code.all_points()``
    (r_o is the point in row ``rows[o, 0]``).  The unit-scale log-overlaps
    log <r_o|e^{2 pi i t/d} r_o'> = e^{2 pi i t/d} x[o, o'] - half[o, o']
    are kept as ``x[o, o']`` = r_o^* . r_o' and ``half[o, o']`` =
    (|r_o|^2 + |r_o'|^2)/2.  ``b[c, o, k]`` = sum_t e^{2 pi i c t/d}
    sqrt(w) [owner = k], for the weight w and codeword ``owner`` of point
    (o, t), expands Pi_c|C_k> over the Pi_c|r_o> (C_k the raw codewords),
    and ``powers`` is the kappa-independent part of the sector series
    (None when d = 1).
    """

    d: int
    rows: np.ndarray
    half: np.ndarray
    x: np.ndarray
    abs_max: float
    b: np.ndarray
    powers: Optional[_Powers]


def _rotation_orbits(pts: np.ndarray, w: np.ndarray, owner: np.ndarray, d: int):
    """The orbit table (see _Orbits.rows) of the rotation e^{2 pi i/d} when
    it permutes the points, keeps their weights and maps every codeword
    onto one codeword; None otherwise."""
    eps = _ORBIT_ULPS * np.finfo(float).eps
    tol = eps * max(1.0, float(np.abs(pts).max()))
    perm = _match_points(pts, np.exp(2j * np.pi / d) * pts, tol)
    if perm is None or np.abs(w[perm] - w).max() > eps * w.max():
        return None
    # Each codeword must land inside one codeword, by a permutation of the
    # codewords; perm being a bijection then makes each image a whole
    # codeword.
    image = owner[perm]
    first = image[np.searchsorted(owner, np.arange(owner[-1] + 1))]
    if np.any(image != first[owner]) or np.bincount(first).max() > 1:
        return None
    seen = np.zeros(len(pts), dtype=bool)
    rows = []
    for a in range(len(pts)):
        if not seen[a]:
            orbit = [a]
            for _ in range(d - 1):
                orbit.append(int(perm[orbit[-1]]))
            seen[orbit] = True
            rows.append(orbit)
    rows = np.array(rows)
    if rows.size != len(pts):  # a point (near) the origin is its own image
        return None
    # Steps that each match within tol can drift by up to d tol along an
    # orbit; the sector Grams use the rotated first points, so check those.
    turns = np.exp(2j * np.pi * np.arange(d) / d)[None, :, None]
    if np.linalg.norm(turns * pts[rows[:, :1]] - pts[rows], axis=2).max() > tol:
        return None
    return rows


# Codes hash by identity, so a table is found again for the same CodeSpec
# object only.
@lru_cache(maxsize=8)
def _orbits(code: CodeSpec) -> _Orbits:
    pts = code.all_points()
    w = np.concatenate([c.weights for c in code.logicals])
    owner = np.repeat(np.arange(code.dim), [c.size for c in code.logicals])
    N = len(pts)
    d, rows = 1, np.arange(N)[:, None]
    # A point at the origin is fixed by every rotation, so no d > 1 acts
    # freely; otherwise every orbit has d points and d divides N.
    # d <= 1009 keeps a block of the sector series within L log 2 <= 700
    # (see _sector_grams).
    if np.abs(pts).max(axis=1).min() > 0.0:
        for cand in range(min(N, 1009), 1, -1):
            if N % cand == 0:
                found = _rotation_orbits(pts, w, owner, cand)
                if found is not None:
                    d, rows = cand, found
                    break
    reps = pts[rows[:, 0]]
    norms = (np.abs(reps) ** 2).sum(axis=1)
    x = np.conj(reps) @ reps.T
    half = 0.5 * (norms[:, None] + norms[None, :])
    coef = np.sqrt(w)[rows][..., None] * (owner[rows][..., None] == np.arange(code.dim))
    return _Orbits(
        d=d, rows=rows, half=half, x=x, abs_max=float(np.abs(x).max()),
        b=np.fft.ifft(coef, axis=1, norm="forward").transpose(1, 0, 2),
        powers=_power_table(x, half, d) if d > 1 else None,
    )


_LOG_2PI = float(np.log(2.0 * np.pi))
# log m! for m <= 15, below the range of Stirling's series.
_SMALL_LOG_FACT = np.array([lgamma(m + 1.0) for m in range(16)])


def _log_poisson(m: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log(e^-lam lam^m / m!) for integers m >= 0 and lam > 0, to a few
    ulps of lam at worst.

    The direct sum m log(lam) - lam - log(m!) cancels terms near 1e4 at
    lam = 1500 down to a few units: with it (log m! from lgamma) the sector
    Grams of qcc12 at scale 15 (kappa |x| = 1529) were 1.3e-12 off an
    extended-precision sum per entry and those of qcc8 at scale 20
    (kappa |x| = 1360) 7.9e-13, against 5.5e-14 and 4.9e-14 with this
    form, and 1.1e-12 and 5.6e-13 with the log-domain series it replaced.
    The saddle-point form of Loader, "Fast
    and accurate computation of binomial probabilities" (2000), is
    -log(2 pi m)/2 - stirlerr(m) - bd0(m, lam) with Stirling's error
    stirlerr and the deviance bd0 = m log(m/lam) + lam - m, the latter
    summed as a series in v = (m - lam)/(m + lam) where |v| < 0.1.
    """
    mf = np.maximum(m, 1).astype(float)
    nn = mf * mf
    stirlerr = np.where(
        m > 15,
        (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / mf,
        _SMALL_LOG_FACT[np.minimum(m, 15)] - (mf + 0.5) * np.log(mf) + mf - 0.5 * _LOG_2PI,
    )
    v = (mf - lam) / (mf + lam)
    vv = v * v
    odd = 1 / 3 + vv * (1 / 5 + vv * (1 / 7 + vv * (1 / 9 + vv * (
        1 / 11 + vv * (1 / 13 + vv * (1 / 15 + vv / 17))))))
    bd0 = np.where(
        np.abs(v) < 0.1,
        (mf - lam) * v + 2.0 * mf * v * vv * odd,
        mf * (np.log(mf) - np.log(lam)) + lam - mf,
    )
    return np.where(m == 0, -lam, -0.5 * (_LOG_2PI + np.log(mf)) - stirlerr - bd0)


def _sector_grams(orbits: _Orbits, kappa: np.ndarray) -> np.ndarray:
    """[p, s, o, o'] = <Pi_s f_o|Pi_s f_o'> for f_o = |sqrt(kappa_p) r_o>,
    Pi_s the projector onto photon number s mod d.

    That is exp(-kappa half) sum_{m = s mod d} (kappa x)^m / m!.  The DFT
    over t of <f_o|e^{2 pi i t/d} f_o'> gives the same sums with an
    absolute error of eps, which swamps the sectors that are small at low
    amplitude: those carry the codeword differences.  Per entry, with x =
    scale u for the power of two of its band (see _Powers) and lam =
    kappa scale, the series is

        exp(kappa (scale - half)) sum_m pi_m(lam) u^m,

    pi_m(lam) = e^-lam lam^m / m! the Poisson weights: one table of powers
    u^m serves every kappa, and a point's weights are shared by the
    entries of a band.  The terms are taken in chunks of L terms from m0
    on; a chunk's weights are divided by the largest of the point's own
    terms there, pi_peak(lam), and its powers are u^m0 u^j, so it
    contributes

        exp(log pi_peak(kappa |x|) + kappa (|x| - half) - (peak - m0) log|u|)
          * e^{i m0 arg u} sum_j [pi_(m0 + j)(lam) / pi_peak(lam)] u^j.

    The first exponent equals log pi_peak(lam) + lam - kappa half +
    m0 log|u|, written so that its terms stay small where the entry's own
    terms are large: at kappa |x| = 1529 (qcc12 at scale 15) the entries
    agree with an extended-precision sum to 5.5e-14, against 4e-13 for the
    form with terms near lam.  Each series term is at most 1, and
    1/2 <= |u| < 1 bounds the first exponent by L log 2 <= 700 (d <= 1009
    and L <= max(d, 128)), so no factor overflows, and the weight-power
    products that matter stay normal numbers.

    Each point sums blocks of d terms until the Poisson tail of its largest
    kappa |x| is below 1e-20 (past the mean plus 10 standard deviations plus
    25).  Terms past a point's own blocks are zeroed and chunks have a fixed
    size, so a point's sums are formed in the same order whatever else is
    in the batch.

    With d = 1 the one sector holds the whole overlap, whose series sums to
    exp(kappa (x - half)); that closed form is used instead, so a code
    without symmetry costs one exponential per entry.
    """
    d = orbits.d
    if d == 1:
        return np.exp(kappa[:, None, None, None] * (orbits.x - orbits.half))
    pw = orbits.powers
    P, group, L = len(kappa), pw.group, pw.group * d
    lam = kappa * orbits.abs_max
    blocks = -(-(lam + 10.0 * np.sqrt(lam) + 25.0).astype(int) // d)
    past = d * blocks[:, None, None]
    end = int(past.max())
    tiny = np.finfo(float).tiny
    lam = np.maximum(kappa[:, None] * pw.scales, tiny)[..., None]  # [p, band, 1]
    kx = np.maximum(kappa[:, None] * pw.abs_x, tiny)
    drop = kappa[:, None] * pw.drop
    out = np.zeros((P, d, pw.order.size), dtype=complex)
    turn = np.ones(pw.order.size, dtype=complex)
    weights = np.zeros((P, len(pw.scales), L))
    for g, m0 in enumerate(range(0, end, L)):
        m = np.arange(m0, min(m0 + L, end))
        inside = m < past
        # pi_m / pi_peak for the largest weight pi_peak of the point's own
        # terms in the chunk: products of pi_m / pi_(m-1) = lam/m rightwards
        # and of pi_m / pi_(m+1) = (m + 1)/lam leftwards, each at most 1.
        # The chunk is cut where the batch's longest series ends, which
        # leaves each point's weights unchanged.
        last = np.maximum(np.minimum(m0 + L, past) - 1, m0)
        peak = np.minimum(np.maximum(np.floor(lam), m0), last).astype(int)
        up = np.where((m > peak) & inside, lam / np.maximum(m, 1), 1.0)
        down = np.where(m < peak, (m + 1) / np.maximum(lam, 1.0), 1.0)
        weights[..., :len(m)] = np.cumprod(up, axis=2) * np.cumprod(down[..., ::-1], axis=2)[..., ::-1]
        weights[..., :len(m)] *= inside
        weights[..., len(m):] = 0.0
        w = np.ascontiguousarray(weights.reshape(P, -1, group, d).transpose(0, 1, 3, 2))
        peak = peak[:, pw.band, 0]
        expo = _log_poisson(peak, kx) + drop - (peak - m0) * pw.log_u
        if g:
            turn = turn * pw.step_turn
        outer = np.exp(expo) * turn
        for i, (lo, hi) in enumerate(zip(pw.bounds[:-1], pw.bounds[1:])):
            sums = w[:, i, :, None, :] @ pw.table[:, :, 2 * lo:2 * hi]
            out[:, :, lo:hi] += outer[:, None, lo:hi] * sums.view(complex)[:, :, 0]
    grams = np.empty_like(out)
    grams[:, :, pw.order] = out
    n = len(orbits.x)
    return grams.reshape(P, d, n, n)


def loss_fidelity(code: CodeSpec, gamma: float, scale: float) -> LossFidelity:
    """Entanglement fidelity of transpose (Petz) recovery after pure loss,
    from coherent-state algebra alone, with every loss order kept.

    Pure loss is a beam splitter onto an environment mode per mode:
    |a> -> |sqrt(1 - gamma) a> |sqrt(gamma) a>.  Its Kraus operators can be
    indexed by any orthonormal basis |j> of the span of the environment
    states |e_a> = |sqrt(gamma) a>, since the fidelity does not depend on
    the Kraus representation.  Here the basis diagonalizes the environment
    Gram E_ab = <e_a|e_b> = V diag(lam) V^+: with g = conj(V) lam^{1/2},
    g[a, j] = <j|e_a> and g g^+ = conj(E).  For a Parseval frame |phi_m>
    = sum_a A[a, m] |a> of the code space, the branch images have Gram
    G[(j,m),(j',m')] = M^+ S M with M[a, (j, m)] = g[a, j] A[a, m] and S
    the overlap of the damped points |sqrt(1 - gamma) a>.  With branch
    images B_j, the composite logical Kraus operators B_j'^+ N(P)^{-1/2}
    B_j of recovery after loss are the blocks of (B^+ B)^{1/2} = G^{1/2},
    and the trace over the code space may be taken in the frame, giving

        F = (1/K^2) sum_{j,j'} |sum_m [G^{1/2}]_{(j,m),(j',m)}|^2.

    Let U = exp(2 pi i n/d) (n the total photon number) be the largest
    phase rotation that permutes the points, keeps their weights and maps
    codewords onto codewords, and Pi_c the projector onto n = c mod d.  U
    commutes with the code projector and with loss, so the code space is
    the orthogonal sum of its images Pi_c(code), and an orthonormal basis
    of each image, taken together, is the frame.  Per orbit o (the points
    e^{2 pi i t/d} r_o):

        S^[c]_kappa = sector Grams <Pi_c f_o|Pi_c f_o'> of the states
                      |sqrt(kappa) r_o>, summed as series (_sector_grams);
                      kappa = s^2 (codewords), gamma s^2 (environment
                      E^[q]) and (1 - gamma) s^2 (damped states S^[s]);
        b_c[o, k]   = sum_t e^{2 pi i c t/d} sqrt(w) [owner = k] at point
                      (o, t), a DFT along the orbit, so Pi_c|C_k> =
                      sum_o b_c[o, k] Pi_c|s r_o> for the raw codewords
                      C_k = sum_a sqrt(w_a)|s a>;
        G^(c)       = b_c^+ S^[c]_{s^2} b_c, the Gram of the Pi_c|C_k>,
                      = U_c diag(mu_c) U_c^+; the frame vectors of sector c
                      are the columns of b_c U_c mu_c^{-1/2} over the kept
                      eigenvalues, a[m, o] for frame m in sector c_m;
        g_q         = conj(V_q) lam_q^{1/2} from E^[q] = V_q diag(lam_q) V_q^+;
        M_s[o, (m, j)] = a[m, o] g_q[o, j] with q = (c_m - s) mod d,
        G_s         = M_s^+ S^[s] M_s,

    since loss from sector c with environment sector q lands in output
    sector s = c - q.  F = sum_q ||Z_q||^2 / K^2 with Z_q[j, j'] = sum_m
    [G_s^{1/2}]_{(m,j),(m,j')} at s = (c_m - q) mod d.  With M_s^+ = Q T
    (thin QR), G_s^{1/2} = Q (T S^[s] T^+)^{1/2} Q^+, so the eigenproblems
    are n x n (n = N/d orbits, N points) and M_s has K n rows.  The kept
    eigenvalues of G^(c) are those above 1e-13 times the sector's largest
    and above 1e-24 times the largest of all sectors; a sector the code
    does not reach holds only rounding, near 1e-34 of the largest.  Any
    count other than K frames raises NumericalFailure.  A code with no
    such rotation, or with a point at the origin, has d = 1: one sector
    holding every point, whose Grams are the plain coherent-state
    overlaps, so this is the formula above with a basis of the whole code
    space.  Negative eigenvalues of E^[q] and of T S^[s] T^+ are clipped
    to 0 and no relative floor is applied.  ``gram_ratio`` is the
    min/max eigenvalue ratio of sum_c G^(c), the codeword Gram.
    """
    res = loss_fidelities(code, [(gamma, scale)])[0]
    if isinstance(res, NumericalFailure):
        raise res
    return res


def loss_fidelities(
    code: CodeSpec, points: Sequence[Tuple[float, float]]
) -> List[Union[LossFidelity, NumericalFailure]]:
    """``loss_fidelity`` at each (gamma, scale) point, evaluated in batches.

    Each entry is the point's LossFidelity, or the NumericalFailure that
    point raises (DegenerateCodewordsError where the codewords are
    degenerate at its scale).  Entries equal per-point calls bit for bit.
    """
    points = [(float(g), float(s)) for g, s in points]
    for gamma, scale in points:
        if not 0.0 <= gamma < 1.0:
            raise ValidationError("loss probability gamma must satisfy 0 <= gamma < 1")
        if not 0.0 < scale < np.inf:
            raise ValidationError("scale must be positive and finite")
    orbits = _orbits(code)
    step = max(1, _BATCH_BYTES // (16 * code.dim * orbits.rows.size * len(orbits.rows)))
    out = []
    for i in range(0, len(points), step):
        out += _fidelity_batch(code, orbits, points[i:i + step])
    return out


def _fidelity_batch(code: CodeSpec, orbits: _Orbits, points: list) -> list:
    K, d = code.dim, orbits.d
    n = len(orbits.rows)
    P = len(points)
    gamma = np.array([g for g, _ in points])
    s2 = np.array([s for _, s in points]) ** 2
    # Codeword, environment and damped sector Grams, in that order.
    grams = _sector_grams(orbits, np.concatenate([s2, gamma * s2, (1.0 - gamma) * s2]))
    b = orbits.b
    gc = np.conj(b.swapaxes(-1, -2)) @ grams[:P] @ b
    ev = np.linalg.eigvalsh(gc.sum(axis=1))
    mu, u = np.linalg.eigh(gc)
    keep = ((mu > 1e-13 * mu.max(axis=2, keepdims=True))
            & (mu > 1e-24 * mu.max(axis=(1, 2))[:, None, None]))
    ratios = (ev[:, 0] / ev[:, -1]).tolist()
    out: list = [None] * P
    for i, ratio in enumerate(ratios):
        if ev[i, 0] <= 1e-12 * ev[i, -1]:
            out[i] = DegenerateCodewordsError(f"degenerate codewords: Gram eigenvalue ratio {ratio:.3e}")
        elif keep[i].sum() != K:
            out[i] = NumericalFailure(f"{keep[i].sum()} sector frames for {K} codewords")
    live = np.array([i for i in range(P) if out[i] is None], dtype=int)
    if not live.size:
        return out
    Pa, P = P, len(live)
    pl = np.arange(P)[:, None]
    # Frame m of point p lies in sector c[p, m]: eigenvector j[p, m] of it.
    _, c, j = np.nonzero(keep[live])
    c, j = c.reshape(P, K), j.reshape(P, K)
    mu, u = mu[live], u[live]
    frame = u[pl, c, :, j] / np.sqrt(mu[pl, c, j])[..., None]
    a_h = np.conj(np.einsum("pmok,pmk->pmo", b[c], frame))
    # conj(g)[p, q, j, o], g[p, q, o, j] = <j_q|Pi_q e_o> (environment basis j_q).
    lam_e, v_e = np.linalg.eigh(grams[Pa + live])
    g_h = (v_e * np.sqrt(np.clip(lam_e, 0.0, None))[..., None, :]).swapaxes(-1, -2)
    # Output sector s pairs frame m with environment sector (c_m - s) mod d,
    # and environment sector q pairs it with output sector (c_m - q) mod d.
    other = (c[:, None, :] - np.arange(d)[:, None]) % d
    # M_s^+[p, s, (m, j), o] = conj(a[p, m, o] g[p, q, o, j]).
    m_h = (a_h[:, None, :, None, :] * g_h[pl[:, :, None], other]).reshape(P, d, K * n, n)
    q, t = np.linalg.qr(m_h)
    del m_h
    lam, w = np.linalg.eigh(t @ grams[2 * Pa + live] @ np.conj(t.swapaxes(-1, -2)))
    # G_s^{1/2} = y y^+; rows (m, j) of y, regrouped per environment sector
    # q, give Z_q.
    y = q @ w
    del q
    y *= np.clip(lam, 0.0, None)[..., None, :] ** 0.25
    y = y.reshape(P, d, K, n, n)
    z = y[pl[:, :, None], other, np.arange(K)].transpose(0, 1, 3, 2, 4).reshape(P, d, n, K * n)
    del y
    zz = z @ np.conj(z.swapaxes(-1, -2))
    fids = (np.abs(zz) ** 2).reshape(P, -1).sum(axis=1) / K**2
    for i, fid in zip(live.tolist(), fids.tolist()):
        ratio = ratios[i]
        # Roundoff in the frames of a sector holding several orbits grows like
        # eps over the codeword Gram's eigenvalue ratio.  At gamma = 0, F was
        # measured up to 0.42 eps/ratio above 1 with one global frame, and
        # with sector frames 1.1e-8 above 1 for qsc24 at scale 0.8 (ratio
        # 1.5e-12) and 2.6e-9 at 0.9 (ratio 2.6e-11), beyond a flat 1e-9.
        # A larger excess is a breakdown, not roundoff.
        if fid > 1.0 + 1e-9 + 10.0 * np.finfo(float).eps / ratio:
            out[i] = NumericalFailure(f"fidelity {fid!r} exceeds 1 beyond tolerance")
        else:
            out[i] = LossFidelity(fidelity=min(fid, 1.0), gram_ratio=ratio)
    return out


@dataclass(frozen=True)
class ParamTriple:
    """Asymptotic loss-protection parameters <t_down, d_updown, d_down>.

    (t_down - 1) losses are correctable, (d_down - 1) pure losses and
    (d_updown - 1) mixed loss-gain events are detectable.  Values are capped
    by the search ceiling used to compute them.
    """

    t_down: int
    d_updown: int
    d_down: int
    search_ceiling: int

    def __post_init__(self):
        if not (1 <= self.t_down and 1 <= self.d_updown and 1 <= self.d_down):
            raise ValidationError("parameters must be positive")
        if self.t_down > self.d_updown:
            raise ValidationError("correction cannot exceed loss-gain detection")
        if self.d_updown > self.d_down:
            raise ValidationError("loss-gain detection cannot exceed pure-loss detection")
        if max(self.t_down, self.d_updown, self.d_down) > self.search_ceiling:
            raise ValidationError("parameters exceed the search ceiling")

    def astuple(self) -> tuple:
        return (self.t_down, self.d_updown, self.d_down)

    def __str__(self):
        return f"<{self.t_down},{self.d_updown},{self.d_down}>"


def code_parameters(code: CodeSpec, ceiling: int, tol: float = 1e-9) -> ParamTriple:
    """Moment-based parameters by exhaustive multi-index enumeration.

    t_down:   largest k <= ceiling with all moments (p, q), |p|,|q| <= k-1
              matching across codewords within tol;
    d_down:   largest d with all pure-loss moments (0, q), |q| <= d-1 matching;
    d_updown: largest d with all (p, q), |p|+|q| <= d-1 matching.
    """
    if code.dim < 2:
        raise ValidationError("code parameters need at least two codewords")
    if ceiling < 1:
        raise ValidationError("search ceiling must be >= 1")
    _check_tol(tol)
    n = code.modes
    ceiling = int(ceiling)
    # One moment table serves d_updown and t_down; it grows only as far as
    # the d_updown search reaches, and t_down <= d_updown stays inside it.
    box = _BoxMoments(code)
    d_updown = _match_degree(n, box.spread, ceiling - 1, tol) + 1

    # Box |p|, |q| <= r grown one level at a time.  Its new pairs have
    # |p| = r or |q| = r, and M(q, p) = conj M(p, q) covers the latter.
    t_down = ceiling
    for r in range(1, ceiling):
        if box.spread(_level(n, r), slice(0, comb(n + r, r))).max() > tol:
            t_down = r
            break

    # Pure-loss row p = 0: every degree below d_updown matches, so the first
    # mismatch is at d_updown or above, streamed from that level up.
    d_down = box.pure_loss_degree(d_updown, ceiling, tol) if d_updown < ceiling else ceiling

    return ParamTriple(t_down=t_down, d_updown=d_updown, d_down=d_down, search_ceiling=ceiling)
