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
(N points); d = 1 is a single sector holding every point.

The asymptotic (large-energy) parameters reduce to weighted-moment
matching and are computed by exhaustive enumeration over stacks of
multi-indices, stopping at the first degree that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lgamma
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .constellation import CodeSpec, as_amplitude
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


def _lowdin(gram: np.ndarray, rel_floor: float = 1e-12) -> Tuple[np.ndarray, float]:
    """The Hermitian inverse square root of a Gram matrix and its min/max
    eigenvalue ratio, from one eigendecomposition.  Raises when the Gram is
    numerically singular."""
    vals, vecs = np.linalg.eigh(gram)
    ratio = float(vals[0] / vals[-1])
    if vals[0] <= rel_floor * vals[-1]:
        raise DegenerateCodewordsError(f"degenerate codewords: Gram eigenvalue ratio {ratio:.3e}")
    return (vecs * (1.0 / np.sqrt(vals))) @ np.conj(vecs.T), ratio


def lowdin_inverse_sqrt(gram: np.ndarray, rel_floor: float = 1e-12) -> np.ndarray:
    """Hermitian inverse square root of a Gram matrix (symmetric
    orthogonalization).  Raises when the Gram is numerically singular."""
    return _lowdin(gram, rel_floor)[0]


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
    Gram's min/max eigenvalue ratio (roundoff puts an error of up to about
    0.42 eps / gram_ratio on the fidelity)."""

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
# A batch's largest arrays (the branch factors M, Q and y, 16 N^2 K bytes per
# point) stay under this many bytes, and so does each point's share of a
# group of series terms; longer batches are split.  Batches only form for
# small codes (at most 32 points at K = 2): they carry the per-call cost of
# the pair-8/12 searches, which one point per call made a third slower.
# Larger batches ran no faster and raised the peak RSS.
_BATCH_BYTES = 1 << 16


@dataclass(frozen=True)
class _Orbits:
    """The largest phase rotation e^{2 pi i/d} that permutes a code's
    points, keeps their weights and maps each codeword's points onto one
    codeword, and the code's points arranged in its orbits.

    ``rows[o, t]`` is the row of e^{2 pi i t/d} r_o in ``code.all_points()``
    (r_o is the point in row ``rows[o, 0]``); ``sqrt_w`` and ``owner`` hold
    each point's square-root weight and codeword in the same layout.  The
    unit-scale log-overlaps log <r_o|e^{2 pi i t/d} r_o'> =
    e^{2 pi i t/d} x[o, o'] - half[o, o'] are kept as ``x[o, o']`` =
    r_o^* . r_o' and ``half[o, o']`` = (|r_o|^2 + |r_o'|^2)/2.
    """

    d: int
    rows: np.ndarray
    sqrt_w: np.ndarray
    owner: np.ndarray
    half: np.ndarray
    x: np.ndarray
    abs_max: float


def _rotation_orbits(pts: np.ndarray, w: np.ndarray, owner: np.ndarray, d: int):
    """The orbit table (see _Orbits.rows) of the rotation e^{2 pi i/d} when
    it permutes the points, keeps their weights and maps every codeword
    onto one codeword; None otherwise."""
    eps = _ORBIT_ULPS * np.finfo(float).eps
    tol = eps * max(1.0, float(np.abs(pts).max()))
    rot = np.exp(2j * np.pi / d) * pts
    if np.abs(pts - rot[0]).max(axis=1).min() > tol:  # cheap test on one point
        return None
    # Nearest neighbours from |b|^2 - 2 Re <a, b>, then checked directly.
    dist = (np.abs(pts) ** 2).sum(axis=1)[None, :] - 2.0 * (np.conj(rot) @ pts.T).real
    perm = dist.argmin(axis=1)
    if (np.abs(rot - pts[perm]).max() > tol
            or np.bincount(perm).max() > 1
            or np.abs(w[perm] - w).max() > eps * w.max()):
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
    if np.abs(turns * pts[rows[:, :1]] - pts[rows]).max() > tol:
        return None
    return rows


def _find_orbits(code: CodeSpec) -> _Orbits:
    pts = code.all_points()
    w = np.concatenate([c.weights for c in code.logicals])
    owner = np.repeat(np.arange(code.dim), [c.size for c in code.logicals])
    N = len(pts)
    d, rows = 1, np.arange(N)[:, None]
    # A point at the origin is fixed by every rotation, so no d > 1 acts
    # freely; otherwise every orbit has d points and d divides N.
    if np.abs(pts).max(axis=1).min() > 0.0:
        for cand in range(N, 1, -1):
            if N % cand == 0:
                found = _rotation_orbits(pts, w, owner, cand)
                if found is not None:
                    d, rows = cand, found
                    break
    reps = pts[rows[:, 0]]
    norms = (np.abs(reps) ** 2).sum(axis=1)
    x = np.conj(reps) @ reps.T
    return _Orbits(
        d=d, rows=rows, sqrt_w=np.sqrt(w)[rows], owner=owner[rows],
        half=0.5 * (norms[:, None] + norms[None, :]), x=x, abs_max=float(np.abs(x).max()),
    )


# log m! = lgamma(m + 1) for m < len(_LOG_FACT), grown as longer series need.
_LOG_FACT = np.zeros(0)


def _log_factorials(count: int) -> np.ndarray:
    """log m! for (at least) m < count."""
    global _LOG_FACT
    if len(_LOG_FACT) < count:
        _LOG_FACT = np.array([lgamma(m + 1.0) for m in range(max(count, 2 * len(_LOG_FACT)))])
    return _LOG_FACT


def _sector_grams(orbits: _Orbits, kappa: np.ndarray) -> np.ndarray:
    """[p, s, o, o'] = <Pi_s f_o|Pi_s f_o'> for f_o = |sqrt(kappa_p) r_o>,
    Pi_s the projector onto photon number s mod d.

    That is exp(-kappa half) sum_{m = s mod d} (kappa x)^m / m!, summed term
    by term in the log domain, so no term overflows.  The DFT over t of
    <f_o|e^{2 pi i t/d} f_o'> gives the same sums with an absolute error of
    eps, which swamps the sectors that are small at low amplitude: those
    carry the codeword differences that the Lowdin factors amplify by the
    inverse Gram ratio.

    Each point sums blocks of d terms until the Poisson tail of its largest
    kappa |x| is below 1e-20 (past the mean plus 10 standard deviations plus
    25).  Terms past a point's own blocks are zeroed and groups of blocks
    have a fixed size, so a point's sums are formed in the same order
    whatever else is in the batch.

    With d = 1 the one sector holds the whole overlap, whose series sums to
    exp(kappa (x - half)); that closed form is used instead, so a code
    without symmetry costs one exponential per entry.
    """
    d = orbits.d
    if d == 1:
        return np.exp(kappa[:, None, None, None] * (orbits.x - orbits.half))
    lam = kappa * orbits.abs_max
    blocks = -(-(lam + 10.0 * np.sqrt(lam) + 25.0).astype(int) // d)
    stop = int(blocks.max())
    log_fact = _log_factorials(stop * d)
    kappa = kappa[:, None, None]
    tiny = np.finfo(float).tiny
    log_abs = np.log(np.maximum(kappa, tiny)) + np.log(np.maximum(np.abs(orbits.x), tiny))
    phase = np.angle(orbits.x)
    base = -kappa * orbits.half
    out = np.zeros((d,) + base.shape, dtype=complex)
    group = max(1, _BATCH_BYTES // (16 * orbits.half.size * d))  # blocks summed at once
    for j in range(0, stop, group):
        m = np.arange(j * d, min(j + group, stop) * d)
        fact = log_fact[m][:, None, None, None]
        m = m.astype(float)[:, None, None, None]
        terms = np.exp(base + m * log_abs - fact + 1j * (m * phase))
        if blocks.min() < stop:
            terms[m[:, 0, 0, 0, None] >= d * blocks] = 0.0
        out += terms.reshape((-1, d) + base.shape).sum(axis=0)
    return out.transpose(1, 0, 2, 3)


# Orbit tables by code identity; an entry holds its code, so an id is not
# reused while cached.
_ORBIT_CACHE: Dict[int, Tuple[CodeSpec, _Orbits]] = {}


def _orbits(code: CodeSpec) -> _Orbits:
    hit = _ORBIT_CACHE.get(id(code))
    if hit is None:
        if len(_ORBIT_CACHE) >= 8:
            _ORBIT_CACHE.pop(next(iter(_ORBIT_CACHE)))
        hit = _ORBIT_CACHE[id(code)] = (code, _find_orbits(code))
    return hit[1]


def loss_fidelity(code: CodeSpec, gamma: float, scale: float) -> LossFidelity:
    """Entanglement fidelity of transpose (Petz) recovery after pure loss,
    from coherent-state algebra alone, with every loss order kept.

    Pure loss is a beam splitter onto an environment mode per mode:
    |a> -> |sqrt(1 - gamma) a> |sqrt(gamma) a>.  Its Kraus operators can be
    indexed by any orthonormal basis |j> of the span of the environment
    states |e_a> = |sqrt(gamma) a>, since the fidelity does not depend on
    the Kraus representation.  Here the basis diagonalizes the environment
    Gram E_ab = <e_a|e_b> = V diag(lam) V^+: with g = conj(V) lam^{1/2},
    g[a, j] = <j|e_a> and g g^+ = conj(E), so the branch images of the
    orthonormalized codewords have Gram G[(j,k),(j',l)] = M^+ S M with
    M[a, (j, k)] = g[a, j] sqrt(w_a) [G_c^{-1/2}]_{owner(a), k} (one row per
    point, G_c the codeword Gram) and S the overlap of the damped points
    |sqrt(1 - gamma) a>.  With branch images B_j, the composite logical
    Kraus operators B_j'^+ N(P)^{-1/2} B_j of recovery after loss are the
    blocks of (B^+ B)^{1/2} = G^{1/2}, giving

        F = (1/K^2) sum_{j,j'} |sum_k [G^{1/2}]_{(j,k),(j',k)}|^2.

    The formula holds for any Parseval frame of the code space in place of
    the orthonormal codewords, which is what lets it work one photon-number
    sector at a time.  Let U = exp(2 pi i n/d) (n the total photon number)
    be the largest phase rotation that permutes the points, keeps their
    weights and maps codewords onto codewords, and Pi_c the projector onto
    n = c mod d.  U commutes with the code projector and with loss, so the
    Pi_c|L_k> form a Parseval frame of the code space; with environment
    bases of definite photon number q mod d, G is block diagonal in the
    output sector s = c - q.  Per orbit o (the points e^{2 pi i t/d} r_o):

        E^[q], S^[s]  = sector Grams <Pi f_o|Pi f_o'> of the environment
                        states |sqrt(gamma) r_o> and damped states
                        |sqrt(1 - gamma) r_o>, i.e. the DFTs over t of
                        <f_o|e^{2 pi i t/d} f_o'> divided by d (summed as
                        series, see _sector_grams);
        g_q           = conj(V_q) lam_q^{1/2} from E^[q] = V_q diag(lam_q) V_q^+;
        a^[c, o, k]   = sum_t e^{2 pi i c t/d} sqrt(w) [G_c^{-1/2}]_{owner, k}
                        at point (o, t), a DFT along the orbit;
        M_s[o, (q, j, k)] = a^[(s + q) mod d, o, k] g_q[o, j],
        G_s           = M_s^+ S^[s] M_s,

    and F = sum_q ||Z_q||^2 / K^2 with Z_q[j, j'] = sum_{s,k}
    [G_s^{1/2}]_{(q,j,k),(q,j',k)}.  With M_s^+ = Q T (thin QR),
    G_s^{1/2} = Q (T S^[s] T^+)^{1/2} Q^+, so the eigenproblems are
    N/d x N/d (N points in total).  A code with no such rotation, or with a
    point at the origin, has d = 1: one sector holding every point, whose
    Grams E and S are the plain coherent-state overlaps, so this is the
    formula above.  Negative eigenvalues of E^[q] and of T S^[s] T^+ are
    clipped to 0 and no relative floor is applied.
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
    step = max(1, _BATCH_BYTES // (16 * orbits.rows.size**2 * code.dim))
    out = []
    for i in range(0, len(points), step):
        out += _fidelity_batch(code, orbits, points[i:i + step])
    return out


def _fidelity_batch(code: CodeSpec, orbits: _Orbits, points: list) -> list:
    K, d = code.dim, orbits.d
    n = len(orbits.rows)
    out: list = [None] * len(points)
    live, ginvs, ratios = [], [], []
    for i, (_, scale) in enumerate(points):
        try:
            ginv, ratio = _lowdin(codeword_gram(code, scale))
        except DegenerateCodewordsError as exc:
            out[i] = exc
            continue
        live.append(i)
        ginvs.append(ginv)
        ratios.append(ratio)
    if not live:
        return out
    P = len(live)
    gamma = np.array([points[i][0] for i in live])
    s2 = np.array([points[i][1] for i in live]) ** 2
    # Environment sector Grams E^[p, q], then damped ones S^[p, s].
    grams = _sector_grams(orbits, np.concatenate([gamma * s2, (1.0 - gamma) * s2]))
    lam_e, v_e = np.linalg.eigh(grams[:P])
    # conj(g)[p, q, j, o], g[p, q, o, j] = <j_q|Pi_q e_o> (environment basis j_q).
    g_h = (v_e * np.sqrt(np.clip(lam_e, 0.0, None))[..., None, :]).swapaxes(-1, -2)
    # a^[p, c, k, o]: the orthonormalized codewords' coefficients per sector.
    coef = orbits.sqrt_w[..., None] * np.stack(ginvs)[:, orbits.owner]
    a_h = np.conj(np.fft.ifft(coef, axis=2, norm="forward")).transpose(0, 2, 3, 1)
    shift = (np.arange(d)[:, None] + np.arange(d)) % d  # [s, q] -> (s + q) mod d
    # M_s^+[p, s, (q, j, k), o] = conj(a^[p, (s + q) mod d, k, o] g[p, q, o, j]).
    m_h = (a_h[:, shift][:, :, :, None, :, :] * g_h[:, None, :, :, None, :]).reshape(P, d, -1, n)
    q, t = np.linalg.qr(m_h)
    del m_h
    lam, w = np.linalg.eigh(t @ grams[P:] @ np.conj(t.swapaxes(-1, -2)))
    # G_s^{1/2} = y y^+; rows (q, j, k) of y, regrouped per (q, j), give Z_q.
    y = q @ w
    del q
    y *= np.clip(lam, 0.0, None)[..., None, :] ** 0.25
    z = y.reshape(P, d, d, n, K * n).transpose(0, 2, 3, 1, 4).reshape(P, d, n, d * K * n)
    del y
    zz = z @ np.conj(z.swapaxes(-1, -2))
    fids = (np.abs(zz) ** 2).reshape(P, -1).sum(axis=1) / K**2
    for i, fid, ratio in zip(live, fids.tolist(), ratios):
        # Roundoff in the Lowdin factors grows like eps over the codeword
        # Gram's eigenvalue ratio; F was measured up to 0.42 eps/ratio above
        # 1 (at gamma = 0).  A larger excess is a breakdown, not roundoff.
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
