"""Error-correction condition checks in exact closed form.

Coherent states have analytic overlaps and ladder-operator matrix elements:

    <a|b>                      = exp(-|a|^2/2 - |b|^2/2 + a* . b)
    <a| prod (a_j^+)^p a_j^q |b> = prod (a_j*)^p_j b_j^q_j * <a|b>

so every block <C_k| E_mu^+ E_nu |C_l> of the correction condition for the
pure-loss error set is a finite weighted sum of such terms, with no Fock
truncation involved.  The sums run over the orbits of the code's largest
phase-rotation symmetry e^{2 pi i/d} (``constellation.code_orbits``): the
N point overlaps reduce to the d n^2 overlaps <r_o|e^{2 pi i tau/d} r_o'>
of the n = N/d orbit representatives, whose DFT over tau gives the Grams
of the d photon-number sectors, and ``kl_report`` contracts each sector
with the representatives' monomials times the orbit DFT of the weights
(``_raw_blocks``), every codeword over every orbit.  With d = 1 this is
the sum over point pairs.

The same algebra gives the benchmark's transpose-recovery fidelity under
pure loss (``loss_fidelity``, batched as ``loss_fidelities``): loss maps
each coherent state to a product of a damped coherent state and a coherent
environment state, so indexing the loss branches by an eigenbasis of the
environment states' Gram keeps every loss order.  When a phase rotation
e^{2 pi i/d} permutes a code's points and its codewords, the work splits
into d sectors of photon number mod d, each with N/d x N/d eigenproblems
(N points), and the code space is taken one sector at a time; d = 1 is a
single sector holding every point.  ``_orbits`` adds the data that the
KL blocks and the loss engine share (the representatives, their unit-
scale overlaps and the orbit DFT of the weights) and, on the loss
engine's first use, the power table of the sector series to the orbit
table.

The asymptotic (large-energy) parameters reduce to weighted-moment
matching and are computed by exhaustive enumeration over stacks of
multi-indices, stopping at the first degree that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, log, sqrt
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .constellation import CodeSpec, as_amplitude, code_orbits
from .errors import DegenerateCodewordsError, NumericalFailure, ValidationError, count_text
from .moments import (
    _BoxMoments,
    _check_tol,
    _index_box,
    _level,
    _level_spreads,
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


def codeword_gram(code: CodeSpec, scale: float = 1.0) -> np.ndarray:
    """Gram matrix of the raw codeword vectors sum_a sqrt(w_a) |scale*a>,
    made exactly Hermitian (ill-conditioned Grams amplify any roundoff
    asymmetry)."""
    pts = scale * code.all_points()
    # c[a, k] = sqrt(w_a) for the points a of codeword k, 0 elsewhere.
    c = np.zeros((len(pts), code.dim))
    for k, (rows, logical) in enumerate(zip(code.codeword_rows(), code.logicals)):
        c[rows, k] = np.sqrt(logical.weights)
    g = c.T @ _pairwise_overlaps(pts, pts) @ c
    return 0.5 * (g + np.conj(g.T))


# Codewords are degenerate when the smallest eigenvalue of their Gram
# matrix is at most this fraction of the largest.
DEGENERATE_RATIO = 1e-12


def _degenerate(ratio: float) -> DegenerateCodewordsError:
    return DegenerateCodewordsError(f"degenerate codewords: Gram eigenvalue ratio {ratio:.3e}")


def lowdin_inverse_sqrt(gram: np.ndarray) -> np.ndarray:
    """Hermitian inverse square root of a Gram matrix (symmetric
    orthogonalization).  Raises when the codewords are degenerate
    (eigenvalue ratio at most DEGENERATE_RATIO)."""
    vals, vecs = np.linalg.eigh(gram)
    if vals[0] <= DEGENERATE_RATIO * vals[-1]:
        raise _degenerate(vals[0] / vals[-1])
    return (vecs * (1.0 / np.sqrt(vals))) @ np.conj(vecs.T)


@dataclass(frozen=True)
class KLReport:
    """Blocks <C_k|E_mu^+ E_nu|C_l> for the pure-loss error set, after
    symmetric orthonormalization of the codewords at the given scale.

    ``blocks[i, j]`` is the K x K block of (q_i, q_j) for the multi-indices
    q = ``indices``; ``matrices`` maps (q_mu, q_nu) to the same blocks, in
    that order, and is built on first access.  ``off_diag_max`` is the
    largest |k != l| entry over all blocks; ``off_diag_rel`` divides each
    block's off-diagonal maximum by max(its largest diagonal magnitude, 1)
    before taking the maximum, removing the polynomial growth of high-order
    blocks.  ``diag_spread_max`` is the largest per-block diagonal spread
    normalized the same way (the orthonormalized identity block sets the
    unit, so blocks whose diagonals vanish asymptotically report ~0 instead
    of 0/0 noise); ``diag_spread_raw`` is unnormalized.
    """

    error_set_label: str
    indices: tuple
    blocks: np.ndarray
    off_diag_max: float
    off_diag_rel: float
    diag_spread_max: float
    diag_spread_raw: float
    scale: float

    @cached_property
    def matrices(self) -> Dict[Tuple[tuple, tuple], np.ndarray]:
        K = self.blocks.shape[-1]
        keys = [(mu, nu) for mu in self.indices for nu in self.indices]
        return dict(zip(keys, self.blocks.reshape(-1, K, K)))


def _raw_blocks(code: CodeSpec, max_loss: int, scale: float) -> np.ndarray:
    """raw[mu, nu, k, l] = <C_k| prod (a^+)^mu a^nu |C_l> for the raw
    codewords C_k = sum_a sqrt(w_a) |scale a> and every |mu|, |nu| <=
    max_loss (in ``multi_indices_upto`` order).

    The sums run over the orbits of the code's rotation e^{2 pi i/d} (see
    constellation.Orbits), sector by sector of photon number mod d, from
    the orbit data of ``_orbits``.  With R_o = scale r_o, b the orbit DFT
    of the square-rooted weights and Pi_s|e^{2 pi i t/d} R> = e^{2 pi i t
    s/d} Pi_s|R>,

        a^nu |C_l> = sum_s sum_o R_o^nu b[(|nu| + s) mod d, o, l] Pi_s|R_o>,

    so raw = sum_s conj(L_s) S_s L_s^T, with L_s[(mu, k), o] = R_o^mu
    b[(|mu| + s) mod d, o, k] over every orbit and codeword (b is zero
    where a codeword has no point of the orbit), and the sector Grams
    S_s[o, o'] = <Pi_s R_o|Pi_s R_o'>: the DFT over tau of the d n^2
    overlaps <R_o|e^{2 pi i tau/d} R_o'> = exp(scale^2 (e^{2 pi i tau/d}
    x[o, o'] - half[o, o'])) of the unit-scale x and half.  The self-
    overlap exponents (tau = 0, o = o') are exactly 0: x[o, o] and half[o,
    o] round differently, which swamps them at large scales.  The DFT
    leaves each sector an absolute error of about eps times the largest
    overlap, as the sum over point pairs does.  The result is made exactly
    Hermitian, raw[nu, mu, l, k] = conj(raw[mu, nu, k, l]).  With d = 1
    these are the sums over point pairs.
    """
    orbits = _orbits(code)
    K, d = code.dim, orbits.d
    box = _index_box(code.modes, max_loss)
    Q, degrees, n = len(box), box.sum(axis=1), len(orbits.x)
    monomials = _monomials(scale * orbits.reps, max_loss)
    turns = np.exp(2j * np.pi * np.arange(d) / d)
    over = turns[:, None, None] * orbits.x
    over -= orbits.half
    np.fill_diagonal(over[0], 0.0)
    # Two factors of scale: scale^2 alone can overflow where the exponents
    # do not (small points at a large scale).
    over *= scale
    over *= scale
    over = np.exp(over, out=over).reshape(d, n * n)
    # Sectors go in groups, each array of a group under _BATCH_BYTES.
    step = max(1, _BATCH_BYTES // (16 * n * max(n, Q * K)))
    full = np.zeros((Q * K, Q * K), dtype=complex)
    for lo in range(0, d, step):
        sectors = np.arange(lo, min(lo + step, d))
        # L_s for these sectors, rows (mu, k).
        side = (orbits.b[(degrees + sectors[:, None]) % d].swapaxes(2, 3)
                * monomials[:, None, :]).reshape(len(sectors), Q * K, n)
        # The DFT over tau (of one term when d = 1: the overlaps).
        dft = turns[-np.outer(sectors, np.arange(d)) % d] / d
        grams = (dft @ over if d > 1 else over).reshape(len(sectors), n, n)
        full += (np.conj(side) @ (grams @ side.swapaxes(1, 2))).sum(axis=0)
    full = 0.5 * (full + np.conj(full.T))
    return full.reshape(Q, K, Q, K).swapaxes(1, 2)


# The most block entries <C_k|E_mu^dag E_nu|C_l> that kl_report forms, 64
# MiB per complex array of them (qsc8 at max_loss 1023, the most admitted:
# 2.3 s and 394 MB peak).  The tests, README and benchmark ask for at most
# 70^2 (cube_orthoplex --D 6 at max_loss 4, --D 8 at 3: 35 errors, K = 2).
MAX_ENTRIES = 2**22
_LOG_FLOAT_MAX = log(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)


def kl_report(code: CodeSpec, max_loss: int, scale: float) -> KLReport:
    """Evaluate the correction-condition blocks for all loss errors with at
    most ``max_loss`` total lost photons, exactly from coherent-state
    matrix elements (``_raw_blocks``, orthonormalized)."""
    if not 0.0 < scale < np.inf:
        raise ValidationError("scale must be positive and finite")
    if max_loss < 0:
        raise ValidationError("max_loss must be nonnegative")
    entries = (comb(code.modes + int(max_loss), code.modes) * code.dim) ** 2
    if entries > MAX_ENTRIES:
        raise ValidationError(f"max_loss needs {count_text(entries)} block entries, "
                              f"more than the cap of {MAX_ENTRIES}")
    # The blocks sum N terms of up to (scale r_max)^(2 max_loss), and the
    # overlap exponents reach (scale r_max)^2 (N points, r_max the largest
    # point norm): a scale at which that overflows a double is rejected.
    r_max = max(float(c.radii().max()) for c in code.logicals)
    power, size = 2 * max(int(max_loss), 1), sum(c.size for c in code.logicals)
    if r_max > 0 and power * (log(scale) + log(r_max)) + log(size) > _LOG_FLOAT_MAX:
        raise ValidationError(
            f"scale {scale:g} is too large for max_loss {max_loss}: the blocks grow like "
            f"(scale * r_max)^{power}, r_max = {r_max:g} the largest point norm, and overflow"
        )
    K = code.dim
    qs = list(multi_indices_upto(code.modes, int(max_loss)))
    raw = _raw_blocks(code, int(max_loss), float(scale))
    # qs[0] is the zero multi-index, so raw[0, 0] is the codeword Gram.
    ginv = lowdin_inverse_sqrt(raw[0, 0])
    # blocks[mu, nu] = ginv @ raw[mu, nu] @ ginv, as two products over the
    # stacked blocks: a stack of K x K products was most of kl's time.
    right = (raw.reshape(-1, K) @ ginv).reshape(raw.shape)
    blocks = (right.swapaxes(2, 3).reshape(-1, K) @ ginv.T).reshape(raw.shape).swapaxes(2, 3)

    # The summary reduces over flat (Q^2, K^2) views: one |entry| per
    # entry, the off-diagonal entries as columns, and the spread over the
    # pairs k < l of diagonal entries (|d_k - d_l| = |d_l - d_k|, and the
    # pairs k = l add 0).
    flat = blocks.reshape(-1, K * K)
    mag = np.abs(flat)
    diag = flat[:, ::K + 1]
    unit = np.maximum(mag[:, ::K + 1].max(axis=1), 1.0)
    off, spread = np.zeros(len(flat)), np.zeros(len(flat))
    if K > 1:
        k, l = np.triu_indices(K, 1)
        off = mag[:, np.concatenate([k * K + l, l * K + k])].max(axis=1)
        spread = np.abs(diag[:, k] - diag[:, l]).max(axis=1)
    return KLReport(
        error_set_label=f"loss<={max_loss}",
        indices=tuple(qs),
        blocks=flat.reshape(blocks.shape),
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


# A batch's largest arrays (the branch factors M, Q and y, 16 K N n bytes per
# point for N points in n orbits) stay under this many bytes, and so does a
# chunk of the power table, and a group of sectors of the KL blocks
# (_raw_blocks: a sector's Gram and L_s over every orbit and codeword take
# 16 n max(n, Q K) bytes); longer batches are split.  qcc24 and qsc24 batch
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
# (constellation._MAX_ORDER) keeps L log 2 <= 700.  _BATCH_BYTES alone would not: it
# allows qsc8 (d = 8, one overlap entry) 4096-term chunks.
_CHUNK_TERMS = 128
# loss_fidelities rejects a scale whose sector series needs more terms
# than this, lam + 10 sqrt(lam) + 25 for lam = kappa max|x| at the point's
# larger kappa, or whose count overflows.  Near the cap one point takes
# 31 ms on qsc8 and 1.4 s on cube_orthoplex --D 6 (scale 270 at nbar = 1;
# 1 BLAS thread, 2-core x86-64); the tests and README commands need at most
# 1944 terms (qcc12 at scale 15).  With d = 1 (no series) the cap bounds the
# closed form's exponents kappa (x - half), whose rounding grows like kappa.
_MAX_TERMS = 1 << 16


@dataclass(frozen=True)
class _Powers:
    """The kappa-independent part of the sector series of one code.

    The E entries (o, o') of the orbit overlaps x, in their natural order,
    fall into bands by their binary exponent: ``band[e]`` is the band of
    entry e, band i holding those with scale/2 <= |x| < scale for
    ``scales[i]``, a power of two (x = 0 goes with the smallest normal
    number), and ``pick[e]`` = band[e] E + e indexes entry e's own band in
    a chunk's sums over [band, entry].  Each entry's unit power is u =
    x / scale, exact, with 1/2 <= |u| < 1 or u = 0.  ``table[s, t]`` holds
    u^(t d + s) for the terms of one chunk (``group`` blocks of d terms),
    as pairs of reals; ``step_turn`` is the phase of u^L, L = group d,
    which carries a chunk's phases to the next.  ``abs_x``, ``drop`` =
    |x| - half and ``log_u`` = log |u| (log of the smallest normal number
    for u = 0) are per entry.
    """

    group: int
    scales: np.ndarray
    band: np.ndarray
    pick: np.ndarray
    table: np.ndarray
    abs_x: np.ndarray
    drop: np.ndarray
    log_u: np.ndarray
    step_turn: np.ndarray


def _power_table(x: np.ndarray, half: np.ndarray, d: int) -> _Powers:
    E = x.size
    group = max(1, min(_BATCH_BYTES // (16 * E * d), _CHUNK_TERMS // d))
    L = group * d
    abs_x = np.abs(x).ravel()
    scale_exp = np.frexp(np.maximum(abs_x, _TINY))[1]
    exps, band = np.unique(scale_exp, return_inverse=True)
    u = x.ravel() / np.exp2(scale_exp.astype(float))
    powers = np.empty((L, E), dtype=complex)
    powers[0] = 1.0
    powers[1:] = u
    np.cumprod(powers, axis=0, out=powers)
    step = powers[-1] * u
    mod = np.abs(step)
    table = np.ascontiguousarray(powers.reshape(group, d, E).transpose(1, 0, 2))
    return _Powers(
        group=group, scales=np.exp2(exps.astype(float)), band=band, pick=band * E + np.arange(E),
        table=table.view(float), abs_x=abs_x, drop=abs_x - half.ravel(),
        log_u=np.log(np.maximum(np.abs(u), _TINY)),
        step_turn=np.where(mod > 0.0, step / np.where(mod > 0.0, mod, 1.0), 1.0),
    )


@dataclass(frozen=True)
class _Orbits:
    """The loss engine's and the KL blocks' data on a code's orbit table
    (from constellation.code_orbits) of the rotation of order ``d``.

    The unit-scale log-overlaps log <r_o|e^{2 pi i t/d} r_o'> =
    e^{2 pi i t/d} x[o, o'] - half[o, o'] of the representatives r_o
    (``reps``) are kept as ``x[o, o']`` = r_o^* . r_o' and ``half[o, o']``
    = (|r_o|^2 + |r_o'|^2)/2.  ``b[c, o, k]`` = sum_t e^{2 pi i c t/d}
    sqrt(w) [owner = k], for the weight w and codeword ``owner`` of point
    (o, t), expands Pi_c|C_k> over the Pi_c|r_o> (C_k the raw codewords;
    zero where C_k has no point of orbit o), ``b_h[c]`` is its conjugate
    transpose, and ``powers``, built on the loss engine's first use, is
    the kappa-independent part of the sector series (None when d = 1).
    """

    d: int
    reps: np.ndarray
    half: np.ndarray
    x: np.ndarray
    abs_max: float
    b: np.ndarray
    b_h: np.ndarray

    @cached_property
    def powers(self) -> Optional[_Powers]:
        return _power_table(self.x, self.half, self.d) if self.d > 1 else None


def _orbits(code: CodeSpec) -> _Orbits:
    """The loss engine's and the KL blocks' data for a code, built once
    and kept with its orbit table (so found again for the same CodeSpec
    object only).  It holds no reference back to the table: a cycle would
    outlive the table's cache entry until a full garbage collection."""
    table = code_orbits(code)
    engine = table.derived.get("loss")
    if engine is None:
        reps = table.reps
        norms = (np.abs(reps) ** 2).sum(axis=1)
        x = np.conj(reps) @ reps.T
        b = table.spectrum(np.sqrt(table.weights))
        engine = table.derived["loss"] = _Orbits(
            d=table.d, reps=reps, half=0.5 * (norms[:, None] + norms[None, :]), x=x,
            abs_max=float(np.abs(x).max()), b=b,
            b_h=np.ascontiguousarray(np.conj(b.swapaxes(-1, -2))),
        )
    return engine


_LOG_2PI = float(np.log(2.0 * np.pi))
# A(m) = log m! - m log m + m for m <= 15; m!/m^m is correctly rounded.
_SMALL_A = np.array([log(factorial(m) / m**m) + m for m in range(16)])


def _log_poisson(m: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log(e^-lam lam^m / m!) for integers m >= 0 and lam > 0, to a few
    ulps of max(lam, 1) + |result| at worst.

    With A(m) = log m! - m log m + m, from a table for m <= 15 and
    Stirling's series log(2 pi m)/2 + 1/(12 m) - ... above, the result is
    -A(m) - D, where the deviance D = m log(m/lam) - (m - lam) is taken as
    m log1p((m - lam)/lam) - (m - lam) where |m - lam| < lam and as
    m (log m - log lam) - (m - lam) elsewhere (m = 0 among them: D = lam).
    Near m = lam, D cancels terms of size |m - lam| only.  The direct sum
    m log(lam) - lam - log(m!) cancels terms near 1e4 at lam = 1500 down to
    a few units: with it (log m! from lgamma) the sector Grams of qcc12 at
    scale 15 (kappa |x| = 1529) were 1.3e-12 off an extended-precision sum
    per entry and those of qcc8 at scale 20 (kappa |x| = 1360) 7.9e-13,
    against 4.0e-14 and 4.9e-14 with this form.
    On 500 samples of m and lam from 1e-3 to 5000 it is within 3.0 eps
    (max(lam, 1) + |result|) of a 40-digit evaluation, against 4.3 for the
    saddle-point form of Loader (2000), with a series for D, that it
    replaced; the direct sum reads 8.0 there.
    """
    mf = np.maximum(m, 1.0)
    log_m = np.log(mf)
    nn = mf * mf
    stirling = 0.5 * (_LOG_2PI + log_m) + (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / mf
    a = np.where(m > 15, stirling, _SMALL_A[np.minimum(m, 15)])
    diff = m - lam
    near = np.abs(diff) < lam
    t = log_m - np.log(lam)
    # t = log(m/lam), by log1p where |m - lam| < lam; neither the division
    # nor log1p is evaluated at the other entries.
    np.log1p(np.divide(diff, lam, out=None, where=near), out=t, where=near)
    return diff - m * t - a


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
    agree with an extended-precision sum to 4.0e-14, against 4e-13 for the
    form with terms near lam.  Each series term is at most 1, and
    1/2 <= |u| < 1 bounds the first exponent by L log 2 <= 700 (d <= 1009
    and L <= max(d, 128)), so no factor overflows, and the weight-power
    products that matter stay normal numbers.

    A chunk takes all bands in one product: every band's weights times
    every entry's powers, of which each entry keeps its own band's sums
    (``pick``), so the entries stay in their natural order.  That forms
    (bands - 1) sums per entry for nothing.  On the codes of the loss
    benchmarks (1-5 bands of 1-36 entries) this costs less than a product
    per band; a cube_orthoplex --D 8 point (7 bands of 4624
    entries, one term per sector in a chunk) takes 1.3-1.8 times as long.

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
    lam = np.maximum(kappa[:, None] * pw.scales, _TINY)[..., None]  # [p, band, 1]
    floor_lam, lam_1 = np.floor(lam), np.maximum(lam, 1.0)
    kx = np.maximum(kappa[:, None] * pw.abs_x, _TINY)
    drop = kappa[:, None] * pw.drop
    weights = np.empty((P, len(pw.scales), L))
    # The weights as [p, s, band, t] for term m0 + t d + s of a chunk.
    by_sector = weights.reshape(P, len(pw.scales), group, d).transpose(0, 3, 1, 2)
    turn = 1.0
    for g, m0 in enumerate(range(0, int(past.max()), L)):
        m = np.arange(m0, m0 + L)
        inside = m < past
        # pi_m / pi_peak for the largest weight pi_peak of the point's own
        # terms in the chunk: products of pi_m / pi_(m-1) = lam/m rightwards
        # and of pi_m / pi_(m+1) = (m + 1)/lam leftwards, each at most 1.
        last = np.maximum(np.minimum(m0 + L, past) - 1, m0)
        peak = np.minimum(np.maximum(floor_lam, m0), last).astype(int)
        up = np.where((m > peak) & inside, lam / np.maximum(m, 1), 1.0)
        down = np.where(m < peak, (m + 1) / lam_1, 1.0)
        np.multiply.accumulate(up, axis=2, out=weights)
        weights *= np.multiply.accumulate(down[..., ::-1], axis=2)[..., ::-1]
        weights *= inside
        peak = peak[:, pw.band, 0]
        outer = np.exp(_log_poisson(peak, kx) + drop - (peak - m0) * pw.log_u)
        sums = np.take((np.ascontiguousarray(by_sector) @ pw.table).view(complex).reshape(P, d, -1),
                       pw.pick, axis=2)
        if g:
            turn = turn * pw.step_turn
            sums *= (outer * turn)[:, None]
            out += sums
        else:
            sums *= outer[:, None]
            out = sums
    n = len(orbits.x)
    return out.reshape(P, d, n, n)


def _codeword_grams(env: np.ndarray, damped: np.ndarray) -> np.ndarray:
    """[p, c, o, o'] = <Pi_c f_o|Pi_c f_o'> for f_o = |s_p r_o>, from the
    sector Grams ``env`` at kappa = gamma s^2 and ``damped`` at (1 - gamma)
    s^2 (_sector_grams, [p, q, o, o']).

    Pure loss is a beam splitter, which conserves photon number, so Pi_c
    on its input is the sum over q of Pi_q on the environment times
    Pi_(c - q) on the output, and entrywise

        S^[c]_{s^2} = sum_q E^[q]_{gamma s^2} S^[c - q]_{(1 - gamma) s^2}

    (sectors mod d).  The einsum sums over q in order for every point, so a
    point gets the same bits in any batch.  It reads S^[c - q] through a
    strided view of the damped Grams stacked twice, with no copy per c.
    """
    P, d = env.shape[:2]
    twice = np.concatenate([damped, damped], axis=1).reshape(P, 2 * d, -1)
    sp, sc, se = twice.strides
    # shifted[p, c, e, q] = twice[p, d + c - q, e] = damped[p, (c - q) mod d, e],
    # with d + c - q in 1, ..., 2d - 1.
    shifted = np.ndarray((P, d, twice.shape[2], d), twice.dtype, buffer=twice, offset=d * sc,
                         strides=(sp, sc, se, -sc))
    grams = np.einsum("pqe,pceq->pce", env.reshape(P, d, -1), shifted)
    return grams.reshape(env.shape)


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
                      |sqrt(kappa) r_o>, summed as series (_sector_grams)
                      at kappa = gamma s^2 (environment E^[q]) and
                      (1 - gamma) s^2 (damped states S^[s]); the
                      codewords' S^[c]_{s^2} = sum_q E^[q] S^[c - q],
                      entrywise (the beam splitter conserves photon
                      number; _codeword_grams);
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
    orbits = _orbits(code)
    for gamma, scale in points:
        if not 0.0 <= gamma < 1.0:
            raise ValidationError("loss probability gamma must satisfy 0 <= gamma < 1")
        if not 0.0 < scale < np.inf:
            raise ValidationError("scale must be positive and finite")
        lam = max(gamma, 1.0 - gamma) * scale * scale * orbits.abs_max
        terms = lam + 10.0 * sqrt(lam) + 25.0
        if not terms <= _MAX_TERMS:
            raise ValidationError(
                f"scale {scale:g} is too large: its loss series needs {terms:.3g} photon-number "
                f"terms, more than the {_MAX_TERMS} allowed"
            )
    step = max(1, _BATCH_BYTES // (16 * code.dim * orbits.d * len(orbits.x) ** 2))
    out = []
    for i in range(0, len(points), step):
        out += _fidelity_batch(code, orbits, points[i:i + step])
    return out


def _fidelity_batch(code: CodeSpec, orbits: _Orbits, points: list) -> list:
    K, d = code.dim, orbits.d
    n = len(orbits.x)
    P = len(points)
    gamma = np.array([g for g, _ in points])
    s2 = np.array([s for _, s in points]) ** 2
    # Environment and damped sector Grams, in that order; the codewords'
    # are their convolution.
    grams = _sector_grams(orbits, np.concatenate([gamma * s2, (1.0 - gamma) * s2]))
    env, damped = grams[:P], grams[P:]
    b = orbits.b
    # The sector Grams G^(c) of the codewords, and their sum as slice d.
    gc = np.empty((P, d + 1, K, K), dtype=complex)
    np.matmul(orbits.b_h @ _codeword_grams(env, damped), b, out=gc[:, :d])
    gc[:, d] = gc[:, :d].sum(axis=1)
    mu, u = np.linalg.eigh(gc)
    ev, mu, u = mu[:, d], mu[:, :d], u[:, :d]
    # eigh sorts ascending: the last column holds each sector's largest.
    top = mu[:, :, -1:]
    keep = (mu > 1e-13 * top) & (mu > 1e-24 * top.max(axis=1, keepdims=True))
    counts = keep.sum(axis=(1, 2)).tolist()
    ratios = (ev[:, 0] / ev[:, -1]).tolist()
    degenerate = (ev[:, 0] <= DEGENERATE_RATIO * ev[:, -1]).tolist()
    out: list = [None] * P
    for i, ratio in enumerate(ratios):
        if degenerate[i]:
            out[i] = _degenerate(ratio)
        elif counts[i] != K:
            out[i] = NumericalFailure(f"{counts[i]} sector frames for {K} codewords")
    ids = [i for i in range(P) if out[i] is None]
    if not ids:
        return out
    # Slices, not copies, when every point is live.
    live = slice(None) if len(ids) == P else np.array(ids)
    keep, mu, u, env, damped = keep[live], mu[live], u[live], env[live], damped[live]
    P = len(mu)
    pl = np.arange(P)[:, None]
    # Frame m of point p lies in sector c[p, m]: eigenvector j[p, m] of it.
    _, c, j = np.nonzero(keep)
    c, j = c.reshape(P, K), j.reshape(P, K)
    frame = u[pl, c, :, j] / np.sqrt(mu[pl, c, j])[..., None]
    a_h = np.conj(np.einsum("pmok,pmk->pmo", b[c], frame))
    # conj(g)[p, q, j, o], g[p, q, o, j] = <j_q|Pi_q e_o> (environment basis j_q).
    lam_e, v_e = np.linalg.eigh(env)
    g_h = (v_e * np.sqrt(np.maximum(lam_e, 0.0))[..., None, :]).swapaxes(-1, -2)
    # Output sector s pairs frame m with environment sector (c_m - s) mod d,
    # and environment sector q pairs it with output sector (c_m - q) mod d.
    other = (c[:, None, :] - np.arange(d)[:, None]) % d
    # M_s^+[p, s, (m, j), o] = conj(a[p, m, o] g[p, q, o, j]).
    m_h = (a_h[:, None, :, None, :] * g_h[pl[:, :, None], other]).reshape(P, d, K * n, n)
    q, t = np.linalg.qr(m_h)
    del m_h
    lam, w = np.linalg.eigh(t @ damped @ np.conj(t.swapaxes(-1, -2)))
    # G_s^{1/2} = y y^+; rows (m, j) of y, regrouped per environment sector
    # q, give Z_q.
    y = (q @ (w * np.maximum(lam, 0.0)[..., None, :] ** 0.25)).reshape(P, d, K, n, n)
    del q
    z = y[pl[:, :, None], other, np.arange(K)].transpose(0, 1, 3, 2, 4).reshape(P, d, n, K * n)
    del y
    # sum |Z Z^+|^2, as the squares of the real and imaginary parts.
    zz = (z @ np.conj(z.swapaxes(-1, -2))).view(float).reshape(P, -1)
    fids = np.einsum("pi,pi->p", zz, zz) / K**2
    for i, fid in zip(ids, fids.tolist()):
        ratio = ratios[i]
        # Roundoff in the frames of a sector holding several orbits grows like
        # eps over the codeword Gram's eigenvalue ratio.  At gamma = 0, F was
        # measured up to 0.42 eps/ratio above 1 with one global frame, and
        # with sector frames 1.1e-8 above 1 for qsc24 at scale 0.8 (ratio
        # 1.5e-12) and 2.6e-9 at 0.9 (ratio 2.6e-11), beyond a flat 1e-9.
        # A larger excess is a breakdown, not roundoff.
        if fid > 1.0 + 1e-9 + 10.0 * _EPS / ratio:
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


# The most work code_parameters takes on, counted in moment evaluations from
# the mode count n and the ceiling c before any table is built: the pairs
# |p| + |q| <= c - 1 that the d_updown search reads, C(2n + c - 1, 2n), plus
# _BLOCK_WORK for each block of the searches, at most (c - 1)^2/4 + 3 (c - 1):
# a block's fixed cost is most of a one-mode search.  On one mode the cap
# admits c <= 506.  A one-mode code whose two codewords are both {1, -1}
# matches every moment, so its search runs to the ceiling: 3.1 s at
# c = 506 (1 BLAS thread, 2-core x86-64).  The tests, README and benchmark
# ask for at most 3.9e7 (n = 4, c = 30).  A multi-mode code whose moments
# all match to the ceiling can read up to C(n + c - 1, n)^2 pairs in its
# t_down search, which the count leaves out.
_MAX_SEARCH_WORK = 2**26
_BLOCK_WORK = 2**10


def code_parameters(code: CodeSpec, ceiling: int, tol: float = 1e-9) -> ParamTriple:
    """Moment-based parameters by exhaustive multi-index enumeration.

    t_down:   largest k <= ceiling with all moments (p, q), |p|,|q| <= k-1
              matching across codewords within tol;
    d_down:   largest d with all pure-loss moments (0, q), |q| <= d-1 matching;
    d_updown: largest d with all (p, q), |p|+|q| <= d-1 matching.

    A ceiling whose work exceeds _MAX_SEARCH_WORK is refused before the
    search.
    """
    if code.dim < 2:
        raise ValidationError("code parameters need at least two codewords")
    if ceiling < 1:
        raise ValidationError("search ceiling must be >= 1")
    _check_tol(tol)
    n = code.modes
    ceiling = int(ceiling)
    top = ceiling - 1
    work = comb(2 * n + top, 2 * n) + _BLOCK_WORK * (top * top // 4 + 3 * top)
    if work > _MAX_SEARCH_WORK:
        raise ValidationError(f"search ceiling {ceiling} needs {count_text(work)} moment "
                              f"evaluations on a {n}-mode code, more than the cap of "
                              f"{_MAX_SEARCH_WORK}")
    # One moment table serves d_updown and t_down; it grows only as far as
    # the d_updown search reaches, and t_down <= d_updown stays inside it.
    box = _BoxMoments(code)
    d_updown = _match_degree(_level_spreads(box, ceiling - 1), ceiling - 1, tol) + 1

    # Box |p|, |q| <= r grown one level at a time.  Its new pairs have
    # |p| = r or |q| = r, and M(q, p) = conj M(p, q) covers the latter.
    # Boxes with 2 r < d_updown hold only pairs that d_updown has matched.
    t_down = ceiling
    for r in range((d_updown - 1) // 2 + 1, ceiling):
        if box.spread(_level(n, r), slice(0, comb(n + r, r))) > tol:
            t_down = r
            break

    # Pure-loss row p = 0: every degree below d_updown matches, so the first
    # mismatch is at d_updown or above, streamed from that level up.
    d_down = box.pure_loss_degree(d_updown, ceiling, tol) if d_updown < ceiling else ceiling

    return ParamTriple(t_down=t_down, d_updown=d_updown, d_down=d_down, search_ceiling=ceiling)
