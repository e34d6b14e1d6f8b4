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
pure loss (``loss_fidelity``): loss maps each coherent state to a product
of a damped coherent state and a coherent environment state, so indexing
the loss branches by an eigenbasis of the environment states' Gram keeps
every loss order, and only N x N eigenproblems (N points) are solved.

The asymptotic (large-energy) parameters reduce to weighted-moment
matching and are computed by exhaustive enumeration over stacks of
multi-indices, stopping at the first degree that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import Dict, Sequence, Tuple

import numpy as np

from .constellation import CodeSpec, as_amplitude
from .errors import DegenerateCodewordsError, NumericalFailure, ValidationError
from .moments import (
    _box_spread,
    _check_tol,
    _index_box,
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
    # Gram of coherent states: exp(-|a|^2/2 - |b|^2/2 + a* . b), vectorized.
    na = (np.abs(pts_a) ** 2).sum(axis=1)
    nb = (np.abs(pts_b) ** 2).sum(axis=1)
    cross = np.conj(pts_a) @ pts_b.T
    return np.exp(-0.5 * na[:, None] - 0.5 * nb[None, :] + cross)


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
    if vals.min() <= rel_floor * vals.max():
        raise DegenerateCodewordsError(
            f"degenerate codewords: Gram eigenvalue ratio {vals.min() / vals.max():.3e}"
        )
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
    Gram's min/max eigenvalue ratio (roundoff puts an error of up to about
    0.42 eps / gram_ratio on the fidelity)."""

    fidelity: float
    gram_ratio: float


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

    With M^+ = Q T (thin QR), G^{1/2} = Q (T S T^+)^{1/2} Q^+, so only
    N x N eigenproblems are solved (N points in total).  Negative
    eigenvalues of E and of T S T^+ are clipped to 0 and no relative floor
    is applied.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError("loss probability gamma must satisfy 0 <= gamma < 1")
    if not 0.0 < scale < np.inf:
        raise ValidationError("scale must be positive and finite")
    K = code.dim
    gram = codeword_gram(code, scale)
    ginv = lowdin_inverse_sqrt(gram)
    pts, sqrt_w = _stacked(code, scale)
    owner = np.repeat(np.arange(K), [c.size for c in code.logicals])

    env = sqrt(gamma) * pts
    lam_e, v_e = np.linalg.eigh(_pairwise_overlaps(env, env))
    g = np.conj(v_e) * np.sqrt(np.clip(lam_e, 0.0, None))  # conj(E) = g g^+
    # M[a, (j, k)] = g[a, j] * sqrt(w_a) ginv[owner(a), k], branch-major columns.
    m = (g[:, :, None] * (sqrt_w[:, None] * ginv[owner])[:, None, :]).reshape(len(pts), -1)
    q, t = np.linalg.qr(np.conj(m.T))
    damped = sqrt(1.0 - gamma) * pts
    lam, w = np.linalg.eigh(t @ _pairwise_overlaps(damped, damped) @ np.conj(t.T))
    # G^{1/2} = y y^+; row (j, k) of y, flattened per j, gives the traces.
    y = (q @ w) * np.clip(lam, 0.0, None) ** 0.25
    z = y.reshape(len(pts), -1)
    fid = float(np.linalg.norm(z @ np.conj(z.T)) ** 2) / K**2
    # Roundoff in the Lowdin factors grows like eps over the codeword Gram's
    # eigenvalue ratio; F was measured up to 0.42 eps/ratio above 1 (at
    # gamma = 0).  A larger excess is a breakdown, not roundoff.
    ev = np.linalg.eigvalsh(gram)
    ratio = float(ev[0] / ev[-1])
    if fid > 1.0 + 1e-9 + 10.0 * np.finfo(float).eps / ratio:
        raise NumericalFailure(f"fidelity {fid!r} exceeds 1 beyond tolerance")
    return LossFidelity(fidelity=min(fid, 1.0), gram_ratio=ratio)


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
    # One moment table over the box |u| <= ceiling - 1 serves all three.
    spread = _box_spread(code, ceiling - 1)
    d_updown = _match_degree(n, spread, ceiling - 1, tol) + 1

    # Pure-loss row p = 0: the first mismatched q of degree >= 1 sets d_down.
    bad = np.flatnonzero(spread(_level(n, 0), slice(1, None))[0] > tol)
    d_down = int(_index_box(n, ceiling - 1)[bad[0] + 1].sum()) if bad.size else ceiling

    # Box |p|, |q| <= r grown one level at a time.  Its new pairs have
    # |p| = r or |q| = r, and M(q, p) = conj M(p, q) covers the latter.
    t_down = ceiling
    for r in range(1, ceiling):
        if spread(_level(n, r), slice(0, comb(n + r, r))).max() > tol:
            t_down = r
            break

    return ParamTriple(t_down=t_down, d_updown=d_updown, d_down=d_down, search_ceiling=ceiling)
