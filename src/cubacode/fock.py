"""Truncated-Fock-space simulation of encoding, loss, and recovery.

States live on n modes with a common per-mode cutoff (levels 0..N_c-1).
The pure-loss channel with loss probability gamma has single-mode Kraus
operators

    E_l = (gamma/(1-gamma))^{l/2} a^l / sqrt(l!) (1-gamma)^{n_hat/2},

whose matrix elements reduce to square roots of binomial probabilities:
E_l|k> = sqrt(C(k,l) gamma^l (1-gamma)^{k-l}) |k-l>.  Multimode Kraus
operators are tensor products over modes.  Recovery is the transpose
(Petz) channel with respect to the code projector P = V V^+:

    R_l = P K_l^+ N(P)^{-1/2}   (pseudo-inverse square root),

completed by operators sending the unrecovered complement to a fixed
logical state so the channel is trace preserving.  The entanglement
fidelity of the composite logical channel with Kraus {A_i} is
F = (1/K^2) sum_i |tr A_i|^2.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import comb
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constellation import CodeSpec, as_amplitude, mean_photon_number, scale_code
from .errors import CutoffError, NumericalFailure, ValidationError
from .klcheck import lowdin_inverse_sqrt

DEFAULT_DIM_BUDGET = 4096
_BUDGET_ENV = "CUBACODE_DIM_BUDGET"


def dim_budget() -> int:
    try:
        return int(os.environ.get(_BUDGET_ENV, DEFAULT_DIM_BUDGET))
    except ValueError:
        return DEFAULT_DIM_BUDGET


@dataclass(frozen=True)
class FockSpace:
    """n modes, per-mode levels 0..cutoff-1, total dimension cutoff**n.

    Basis ordering is C-order over the level tuple (mode 0 most
    significant), matching np.kron with mode 0 as the left factor.
    """

    modes: int
    cutoff: int
    budget: Optional[int] = None

    def __post_init__(self):
        if self.modes < 1:
            raise ValidationError("need at least one mode")
        if self.cutoff < 2:
            raise ValidationError("per-mode cutoff must be at least 2")
        cap = self.budget if self.budget is not None else dim_budget()
        if self.cutoff**self.modes > cap:
            raise ValidationError(
                f"dimension {self.cutoff ** self.modes} exceeds budget {cap}; "
                f"raise the budget explicitly (or set {_BUDGET_ENV}) to allow this"
            )

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes

    def shape(self) -> tuple:
        return (self.cutoff,) * self.modes


@dataclass(frozen=True)
class FockState:
    """Dense state vector with its truncation bookkeeping."""

    amplitudes: np.ndarray
    space: FockSpace
    tail_mass: float
    truncation_warning: bool = False

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class FockOperator:
    """Dense operator (or isometry: rectangular matrix) on a FockSpace."""

    matrix: np.ndarray
    space: FockSpace


@dataclass(frozen=True)
class KrausChannel:
    """Finite Kraus family with a completeness-deficiency certificate.

    ``completion`` optionally holds (target, basis) describing extra Kraus
    elements |target><u_i| for the columns u_i of ``basis``; they are kept
    factored because materializing one dim x dim matrix per complement
    direction is wasteful.  ``iter_matrices`` yields everything.
    """

    operators: tuple
    completeness_deficiency: float
    space: FockSpace
    l_max: Optional[int] = None
    completion: Optional[tuple] = None

    def iter_matrices(self, include_completion: bool = True) -> Iterator[np.ndarray]:
        for op in self.operators:
            yield op.matrix
        if include_completion and self.completion is not None:
            target, basis = self.completion
            for i in range(basis.shape[1]):
                yield np.outer(target, np.conj(basis[:, i]))


# ---------------------------------------------------------------------------
# Elementary operators and states
# ---------------------------------------------------------------------------


def annihilation(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator on levels 0..cutoff-1."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(1, cutoff)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


def mode_operator(space: FockSpace, mode: int, single: np.ndarray) -> np.ndarray:
    """Embed a single-mode operator into the full tensor-product space."""
    mats = [np.eye(space.cutoff, dtype=complex) for _ in range(space.modes)]
    mats[mode] = single
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def coherent_amplitudes(alpha: complex, cutoff: int) -> Tuple[np.ndarray, float]:
    """Truncated coherent-state coefficients e^{-|a|^2/2} a^k / sqrt(k!)
    and the probability mass lost to truncation."""
    vec = np.empty(cutoff, dtype=complex)
    vec[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, cutoff):
        vec[k] = vec[k - 1] * alpha / np.sqrt(k)
    tail = max(0.0, 1.0 - float(np.vdot(vec, vec).real))
    return vec, tail


def coherent_fock(a, space: FockSpace) -> FockState:
    """Tensor product of per-mode truncated coherent states.

    The state is not renormalized; with an adequate cutoff (roughly
    3*|alpha_j|^2 below N_c per mode) its norm is 1 up to the tail mass,
    which is recorded.  A tail above 1e-6 sets the truncation warning.
    """
    amp = as_amplitude(a)
    if amp.size != space.modes:
        raise ValidationError("amplitude point does not match the space's mode count")
    vec = np.ones(1, dtype=complex)
    kept = 1.0
    for alpha in amp:
        mode_vec, tail = coherent_amplitudes(alpha, space.cutoff)
        vec = np.kron(vec, mode_vec)
        kept *= 1.0 - tail
    tail_mass = max(0.0, 1.0 - kept)
    return FockState(
        amplitudes=vec,
        space=space,
        tail_mass=tail_mass,
        truncation_warning=tail_mass > 1e-6,
    )


def _raw_codeword_vectors(code: CodeSpec, scale: float, space: FockSpace, tail_tol: float):
    """Unnormalized codeword vectors sum_a sqrt(w_a)|scale*a> and the worst
    weighted tail mass per codeword."""
    vectors = np.zeros((space.dim, code.dim), dtype=complex)
    worst_tail = 0.0
    for k, c in enumerate(code.logicals):
        tail_k = 0.0
        for w, point in zip(c.weights, c.points):
            st = coherent_fock(scale * point, space)
            vectors[:, k] += np.sqrt(w) * st.amplitudes
            tail_k += w * st.tail_mass
        worst_tail = max(worst_tail, tail_k)
    if tail_tol is not None and worst_tail > tail_tol:
        raise CutoffError(
            f"cutoff {space.cutoff} too small at scale {scale:g}: "
            f"codeword tail mass {worst_tail:.3e} exceeds {tail_tol:.1e}"
        )
    return vectors, worst_tail


def encode(code: CodeSpec, scale: float, space: FockSpace, tail_tol: float = 1e-10) -> FockOperator:
    """Isometry from the K-dimensional logical space into Fock space.

    Columns are the symmetrically orthonormalized codeword vectors;
    V^+ V = I_K within numerical precision.
    """
    if scale <= 0:
        raise ValidationError("scale must be positive")
    if space.modes != code.modes:
        raise ValidationError("space mode count does not match the code")
    raw, _ = _raw_codeword_vectors(code, scale, space, tail_tol)
    gram = np.conj(raw.T) @ raw
    v = raw @ lowdin_inverse_sqrt(gram)
    return FockOperator(matrix=v, space=space)


# ---------------------------------------------------------------------------
# Pure-loss channel
# ---------------------------------------------------------------------------


def _binom_pmf_row(k: int, gamma: float, l_max: int) -> np.ndarray:
    """P(Bin(k, gamma) = l) for l = 0..l_max."""
    out = np.zeros(l_max + 1)
    for l in range(0, min(k, l_max) + 1):
        out[l] = comb(k, l) * gamma**l * (1.0 - gamma) ** (k - l)
    if k == 0:
        out[0] = 1.0
    return out


def _binom_sf(k: int, gamma: float, l_max: int) -> float:
    """P(Bin(k, gamma) > l_max)."""
    if l_max >= k:
        return 0.0
    return float(max(0.0, 1.0 - _binom_pmf_row(k, gamma, l_max).sum()))


def single_mode_loss_kraus(gamma: float, cutoff: int, l_max: int) -> List[np.ndarray]:
    """Loss Kraus operators E_0..E_{l_max} on one mode."""
    ops = []
    ks = np.arange(cutoff)
    for l in range(l_max + 1):
        e = np.zeros((cutoff, cutoff), dtype=complex)
        for k in range(l, cutoff):
            e[k - l, k] = np.sqrt(comb(k, l) * gamma**l * (1.0 - gamma) ** (k - l))
        if l == 0 and gamma == 0.0:
            e = np.eye(cutoff, dtype=complex)
        ops.append(e)
    return ops


def _occupied_levels(space: FockSpace, reference: Optional[np.ndarray], mass_tol: float = 1e-13):
    """Per-mode highest occupied level among the reference states (columns),
    or the full cutoff when no reference is given."""
    if reference is None:
        return [space.cutoff - 1] * space.modes
    ref = np.atleast_2d(np.asarray(reference, dtype=complex))
    if ref.shape[0] != space.dim:
        raise ValidationError("reference states do not live on this space")
    k_eff = []
    for j in range(space.modes):
        marg = np.zeros(space.cutoff)
        for col in range(ref.shape[1]):
            tens = np.abs(ref[:, col].reshape(space.shape())) ** 2
            axes = tuple(ax for ax in range(space.modes) if ax != j)
            marg += tens.sum(axis=axes) if axes else tens
        suffix = np.cumsum(marg[::-1])[::-1]
        occupied = np.nonzero(suffix > mass_tol)[0]
        k_eff.append(int(occupied.max()) if occupied.size else 0)
    return k_eff


def auto_loss_l_max(
    gamma: float, space: FockSpace, reference: Optional[np.ndarray] = None,
    target_deficiency: float = 1e-10,
) -> int:
    """Smallest per-mode photon-loss order keeping the completeness
    deficiency below target on the occupied subspace."""
    if gamma == 0.0:
        return 0
    k_eff = max(_occupied_levels(space, reference))
    for l in range(k_eff + 1):
        if space.modes * _binom_sf(k_eff, gamma, l) < target_deficiency:
            return l
    return k_eff


def loss_kraus(
    gamma: float,
    space: FockSpace,
    l_max="auto",
    reference: Optional[np.ndarray] = None,
    target_deficiency: Optional[float] = 1e-10,
) -> KrausChannel:
    """Multimode pure-loss channel as explicit Kraus matrices.

    ``l_max`` is the per-mode maximum loss order; "auto" picks the smallest
    value meeting ``target_deficiency`` on the subspace occupied by the
    reference states (the whole space if none are given).  The deficiency
    ||sum K^+K - I|| restricted to those levels is recorded; construction
    fails if it exceeds the target.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError("loss probability gamma must satisfy 0 <= gamma < 1")
    if l_max == "auto":
        l = auto_loss_l_max(gamma, space, reference, target_deficiency or 1e-10)
    else:
        l = int(l_max)
        if l < 0:
            raise ValidationError("l_max must be nonnegative")
    singles = single_mode_loss_kraus(gamma, space.cutoff, l)
    ops = []
    for combo in itertools.product(range(l + 1), repeat=space.modes):
        mats = [singles[c] for c in combo]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        ops.append(FockOperator(matrix=full, space=space))
    k_eff = _occupied_levels(space, reference)
    deficiency = 1.0
    for j in range(space.modes):
        deficiency *= 1.0 - _binom_sf(k_eff[j], gamma, l)
    deficiency = max(0.0, 1.0 - deficiency)
    if target_deficiency is not None and deficiency > target_deficiency:
        raise CutoffError(
            f"loss channel with l_max={l} leaves completeness deficiency "
            f"{deficiency:.3e} > {target_deficiency:.1e} on the occupied subspace"
        )
    return KrausChannel(
        operators=tuple(ops),
        completeness_deficiency=deficiency,
        space=space,
        l_max=l,
    )


# ---------------------------------------------------------------------------
# Transpose (Petz) recovery and entanglement fidelity
# ---------------------------------------------------------------------------

# Eigenvalues of N(P) below this relative floor are truncated when forming
# the pseudo-inverse square root.
PSEUDO_INVERSE_FLOOR = 1e-12


def _channel_image_factors(b_stack: np.ndarray, floor: float):
    """Low-rank eigen-factorization of N(P) = B B^+ from the stacked
    images B = [K_0 V | K_1 V | ...]: returns (Vn, lam) with
    N(P) = Vn diag(lam) Vn^+ on its support."""
    gram = np.conj(b_stack.T) @ b_stack
    lam, w = np.linalg.eigh(gram)
    keep = lam > floor * max(lam.max(), 0.0)
    if not np.any(keep):
        raise NumericalFailure("channel image of the code projector is numerically zero")
    lam = lam[keep]
    vn = (b_stack @ w[:, keep]) / np.sqrt(lam)
    return vn, lam


def transpose_recovery(encode_v: FockOperator, channel: KrausChannel) -> KrausChannel:
    """Transpose recovery with respect to the code projector P = V V^+.

    Kraus elements are R_l = P K_l^+ N(P)^{-1/2} plus completion elements
    |C_0><u_i| over an orthonormal basis of the unrecovered complement,
    making the channel trace preserving.
    """
    v = encode_v.matrix
    space = encode_v.space
    if channel.space != space:
        raise ValidationError("channel and encoding act on different spaces")
    b_list = [k.matrix @ v for k in channel.operators]
    b_stack = np.hstack(b_list)
    vn, lam = _channel_image_factors(b_stack, PSEUDO_INVERSE_FLOOR)
    inv_sqrt_core = vn * (1.0 / np.sqrt(lam))
    ops = []
    for b in b_list:
        # R = V (B^+ Vn) diag(1/sqrt(lam)) Vn^+, assembled small-to-large.
        r = v @ ((np.conj(b.T) @ inv_sqrt_core) @ np.conj(vn.T))
        ops.append(FockOperator(matrix=r, space=space))
    # Orthonormal basis of the complement of supp N(P): null space of Vn^+.
    _, _, vh = np.linalg.svd(np.conj(vn.T), full_matrices=True)
    basis = np.conj(vh[vn.shape[1]:].T)
    target = v[:, 0]
    ident = np.eye(space.dim)
    s = vn @ np.conj(vn.T) + basis @ np.conj(basis.T) - ident
    deficiency = float(np.abs(np.linalg.eigvalsh(s)).max())
    return KrausChannel(
        operators=tuple(ops),
        completeness_deficiency=deficiency,
        space=space,
        completion=(target, basis),
    )


def _apply_mode_ops(singles: Sequence[np.ndarray], column: np.ndarray, space: FockSpace):
    """Apply one single-mode operator per mode to a full-space vector."""
    if space.modes == 1:
        return singles[0] @ column
    tens = column.reshape(space.shape())
    for j, op in enumerate(singles):
        tens = np.moveaxis(np.tensordot(op, tens, axes=([1], [j])), 0, j)
    return tens.reshape(space.dim)


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    nbar: float
    scale: float
    gamma: float
    cutoff: int
    tail_mass: float
    kraus_l_max: int


def fidelity_details(
    code: CodeSpec,
    gamma: float,
    scale: float,
    space: FockSpace,
    recovery: str = "transpose",
    tail_tol: float = 1e-10,
) -> FidelityResult:
    """Entanglement fidelity of recovery . loss . encode on the logical
    space, with its truncation bookkeeping (cutoff, tail mass, loss order).
    The benchmark computes the same fidelity without truncation
    (``klcheck.loss_fidelity``); this path is its test reference.

    The composite logical Kraus family is {V^+ R_j K_l V}; the fidelity is
    (1/K^2) sum |tr A|^2.  The transpose-recovery path works with the
    low-rank factors of N(P) and per-mode Kraus actions, so multimode
    operators are never materialized; it matches the explicit channel
    composition to numerical precision.
    """
    if recovery not in ("transpose", "projector"):
        raise ValidationError("recovery must be 'transpose' or 'projector'")
    if not 0.0 <= gamma < 1.0:
        raise ValidationError("loss probability gamma must satisfy 0 <= gamma < 1")
    raw, tail = _raw_codeword_vectors(code, scale, space, tail_tol)
    gram = np.conj(raw.T) @ raw
    v = raw @ lowdin_inverse_sqrt(gram)
    K = code.dim
    l = auto_loss_l_max(gamma, space, reference=v)
    singles = single_mode_loss_kraus(gamma, space.cutoff, l)

    b_list = []
    for combo in itertools.product(range(l + 1), repeat=space.modes):
        b = np.column_stack(
            [_apply_mode_ops([singles[c] for c in combo], v[:, k], space) for k in range(K)]
        )
        # Negligible branches are dropped; the total pruned weight stays far
        # below the 1e-10 trace-preservation tolerance.
        if float(np.linalg.norm(b) ** 2) >= 1e-14:
            b_list.append(b)
    if recovery == "projector":
        fid = sum(abs(np.trace(np.conj(v.T) @ b)) ** 2 for b in b_list) / K**2
    else:
        b_stack = np.hstack(b_list)
        vn, lam = _channel_image_factors(b_stack, PSEUDO_INVERSE_FLOOR)
        z = []
        for b in b_list:
            y = (1.0 / lam[:, None]) ** 0.25 * (np.conj(vn.T) @ b)
            z.append(y.reshape(-1))
        z = np.array(z)
        traces = np.conj(z) @ z.T
        fid = float((np.abs(traces) ** 2).sum()) / K**2
        # Completion elements map the unrecovered complement to |C_0>; their
        # contribution is the leaked weight of the first codeword.
        leak = 0.0
        for b in b_list:
            col = b[:, 0]
            leak += float(np.linalg.norm(col - vn @ (np.conj(vn.T) @ col)) ** 2)
        fid += leak / K**2
    if fid > 1.0 + 1e-9:
        raise NumericalFailure(f"fidelity {fid!r} exceeds 1 beyond tolerance")
    nbar = float(scale**2 * np.mean([mean_photon_number(c) for c in code.logicals]))
    return FidelityResult(
        fidelity=float(min(fid, 1.0)),
        nbar=nbar,
        scale=float(scale),
        gamma=float(gamma),
        cutoff=space.cutoff,
        tail_mass=tail,
        kraus_l_max=l,
    )


def entanglement_fidelity(
    code: CodeSpec, gamma: float, scale: float, space: FockSpace, recovery: str = "transpose"
) -> float:
    return fidelity_details(code, gamma, scale, space, recovery=recovery).fidelity

