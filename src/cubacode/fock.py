"""Truncated Fock spaces and the coherent-state vectors built in them.

States live on n modes with a common per-mode cutoff (levels 0..N_c-1),
within a dimension budget.  The stabilizer checks (``stab``) apply
annihilation-operator polynomials to codewords built here, and tests use
the same vectors for references computed from Fock coefficients.  Loss
fidelities are computed without truncation by ``klcheck.loss_fidelity``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .constellation import CodeSpec, as_amplitude
from .errors import CutoffError, ValidationError
from .klcheck import lowdin_inverse_sqrt

DEFAULT_DIM_BUDGET = 4096
_BUDGET_ENV = "CUBACODE_DIM_BUDGET"


def dim_budget() -> int:
    """The largest dimension a FockSpace may have without an explicit
    budget: CUBACODE_DIM_BUDGET, which must be a positive integer, or 4096
    when it is unset."""
    text = os.environ.get(_BUDGET_ENV)
    if text is None:
        return DEFAULT_DIM_BUDGET
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValidationError(f"{_BUDGET_ENV} must be a positive integer, got {text!r}")
    return budget


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


def _raw_codeword_vectors(
    code: CodeSpec, scale: float, space: FockSpace, tail_tol: Optional[float] = None
):
    """Unnormalized codeword vectors sum_a sqrt(w_a)|scale*a> (columns) and
    the worst weighted tail mass per codeword, which must not exceed
    ``tail_tol`` unless that is None."""
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


def encode(code: CodeSpec, scale: float, space: FockSpace, tail_tol: float = 1e-10) -> np.ndarray:
    """Isometry V (dim x K matrix) from the K-dimensional logical space into
    Fock space.

    Columns are the symmetrically orthonormalized codeword vectors;
    V^+ V = I_K within numerical precision.
    """
    if scale <= 0:
        raise ValidationError("scale must be positive")
    if space.modes != code.modes:
        raise ValidationError("space mode count does not match the code")
    raw, _ = _raw_codeword_vectors(code, scale, space, tail_tol)
    gram = np.conj(raw.T) @ raw
    return raw @ lowdin_inverse_sqrt(gram)
