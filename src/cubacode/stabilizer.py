"""Stabilizer-style verification of code constellations.

Two families of checks.  Z-type: polynomials P in the mode amplitudes that
vanish on every constellation point induce annihilation-operator products
F = P(a) with F|C_k> = 0, verified here by applying F to the encoded
codewords in a truncated Fock space: n modes, levels 0..cutoff-1 each,
within a dimension budget.  This is the package's only truncated space;
tests build their Fock-coefficient references from the same vectors.
X-type: passive unitaries permuting each weighted constellation leave the
codewords invariant; every such check, phase rotation or not, is one
closed-form sum over coherent-state overlaps with no Fock build and no
cancellation.

Only verification is performed; dissipative dynamics are out of scope.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .constellation import GEOM_TOL, CodeSpec, Rotation, _match_points, as_amplitude, scale_code
from .errors import ValidationError
from .klcheck import _pairwise_overlaps

DEFAULT_DIM_BUDGET = 4096
_BUDGET_ENV = "CUBACODE_DIM_BUDGET"


def dim_budget() -> int:
    """The largest Fock dimension cutoff**modes the Z-check may build:
    CUBACODE_DIM_BUDGET, which must be a positive integer, or 4096 when it
    is unset."""
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


def annihilation(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator on levels 0..cutoff-1."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(1, cutoff)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


def coherent_fock(point, cutoff: int) -> np.ndarray:
    """The tensor product of per-mode coherent states truncated to levels
    0..cutoff-1, coefficients e^{-|a|^2/2} a^k / sqrt(k!), not renormalized.

    The basis is C-order over the level tuple (mode 0 most significant),
    matching np.kron with mode 0 as the left factor.
    """
    vec = np.ones(1, dtype=complex)
    for alpha in as_amplitude(point):
        mode_vec = np.empty(cutoff, dtype=complex)
        mode_vec[0] = np.exp(-0.5 * abs(alpha) ** 2)
        for k in range(1, cutoff):
            mode_vec[k] = mode_vec[k - 1] * alpha / np.sqrt(k)
        vec = np.kron(vec, mode_vec)
    return vec


@dataclass(frozen=True)
class AnnihilationPolynomial:
    """P(alpha) = sum_u c_u prod_j alpha_j^{u_j}, inducing F = P(a).

    ``terms`` maps exponent multi-indices to coefficients.  Coefficients are
    conventionally normalized to max |c_u| = 1 so residual magnitudes are
    comparable across polynomials; see :func:`ztype_polynomials`.
    """

    terms: tuple  # ((u, coeff), ...) sorted by exponent
    modes: int

    def __post_init__(self):
        terms = tuple(sorted((tuple(int(e) for e in u), complex(c)) for u, c in self.terms))
        if not terms or all(abs(c) == 0 for _, c in terms):
            raise ValidationError("polynomial needs at least one nonzero coefficient")
        if any(len(u) != self.modes for u, _ in terms):
            raise ValidationError("exponent multi-indices must match the mode count")
        if any(e < 0 for u, _ in terms for e in u):
            raise ValidationError("exponents must be nonnegative")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, terms: Dict[tuple, complex], modes: int) -> "AnnihilationPolynomial":
        return cls(terms=tuple(terms.items()), modes=modes)

    def degree(self) -> int:
        return max(sum(u) for u, _ in self.terms)

    def normalized(self) -> "AnnihilationPolynomial":
        big = max(abs(c) for _, c in self.terms)
        return AnnihilationPolynomial(
            terms=tuple((u, c / big) for u, c in self.terms), modes=self.modes
        )

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        out = np.zeros(pts.shape[0], dtype=complex)
        for u, c in self.terms:
            out += c * np.prod(pts ** np.asarray(u), axis=1)
        return out

    def fock_operator(self, cutoff: int) -> np.ndarray:
        """F = sum_u c_u prod_j a_j^{u_j} on levels 0..cutoff-1 per mode."""
        a_single = annihilation(cutoff)
        dim = cutoff**self.modes
        f = np.zeros((dim, dim), dtype=complex)
        for u, c in self.terms:
            singles = [np.linalg.matrix_power(a_single, e) for e in u]
            term = singles[0]
            for m in singles[1:]:
                term = np.kron(term, m)
            f += c * term
        return f


# ---------------------------------------------------------------------------
# Z-type generators
# ---------------------------------------------------------------------------


def _poly_from_roots_in_power(g: int, roots: Sequence[complex]) -> AnnihilationPolynomial:
    # prod_s (alpha^g - rho_s) expanded over the variable x = alpha^g.
    coeffs = np.array([1.0 + 0.0j])
    for rho in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -rho]))
    terms = {}
    deg = len(coeffs) - 1
    for i, c in enumerate(coeffs):
        if abs(c) > 0:
            terms[((deg - i) * g,)] = c
    return AnnihilationPolynomial.from_dict(terms, modes=1).normalized()


def ztype_polynomials(code: CodeSpec) -> List[AnnihilationPolynomial]:
    """Generator polynomial(s) vanishing exactly on the union of all
    constellation points.

    Single-mode codes: finds the smallest power g for which alpha^g is
    constant on each radius class of the union; the generator is then
    prod_s (alpha^g - rho_s) over the distinct values rho_s.  Multimode
    codes are supported only when the union factorizes as a per-mode
    product; the polytope constellations do not, and their generators must
    be supplied explicitly.
    """
    pts = code.all_points()
    if code.modes == 1:
        return [_single_mode_generator(pts[:, 0])]
    # Product structure: union == cartesian product of per-mode value sets.
    per_mode = []
    for j in range(code.modes):
        vals = _distinct(pts[:, j])
        per_mode.append(vals)
    expected = len(pts)
    prod_size = int(np.prod([len(v) for v in per_mode]))
    if prod_size == expected and _is_product(pts, per_mode):
        return [
            _lift_single_mode(_single_mode_generator(np.asarray(vals)), j, code.modes)
            for j, vals in enumerate(per_mode)
        ]
    raise ValidationError(
        "no generator rule for this constellation: supply polynomials explicitly"
    )


def _distinct(values: np.ndarray, tol: float = GEOM_TOL) -> List[complex]:
    out: List[complex] = []
    for v in values:
        if not any(abs(v - u) <= tol for u in out):
            out.append(complex(v))
    return out


def _is_product(pts: np.ndarray, per_mode: List[List[complex]]) -> bool:
    combos = {
        tuple(np.argmin([abs(x - u) for u in per_mode[j]]) for j, x in enumerate(p))
        for p in pts
    }
    return len(combos) == len(pts)


def _single_mode_generator(values: np.ndarray) -> AnnihilationPolynomial:
    radii = np.abs(values)
    classes = _distinct(radii.astype(complex), tol=GEOM_TOL)
    n_classes = len(classes)
    for g in range(1, len(values) + 1):
        powered = values**g
        reps = _distinct(powered, tol=GEOM_TOL * max(1.0, float(np.abs(powered).max())))
        if len(reps) == n_classes:
            return _poly_from_roots_in_power(g, reps)
    raise ValidationError(
        "no generator rule for this constellation: supply polynomials explicitly"
    )


def _lift_single_mode(
    poly: AnnihilationPolynomial, mode: int, modes: int
) -> AnnihilationPolynomial:
    terms = {}
    for (e,), c in poly.terms:
        u = [0] * modes
        u[mode] = e
        terms[tuple(u)] = c
    return AnnihilationPolynomial.from_dict(terms, modes=modes)


# ---------------------------------------------------------------------------
# Residual checks
# ---------------------------------------------------------------------------


def _encoded_states(code: CodeSpec, scale: float, cutoff: int) -> List[np.ndarray]:
    """The truncated codeword vectors sum_a sqrt(w_a)|scale*a>, summed in
    point order and normalized."""
    states = []
    for c in code.logicals:
        vec = np.zeros(cutoff**code.modes, dtype=complex)
        for w, point in zip(c.weights, c.points):
            vec += np.sqrt(w) * coherent_fock(scale * point, cutoff)
        states.append(vec / np.linalg.norm(vec))
    return states


def ztype_residual_states(
    polys: Sequence[AnnihilationPolynomial], states: Sequence[np.ndarray], cutoff: int
) -> float:
    """Max ||F_i |psi>|| over the given unit vectors."""
    worst = 0.0
    for poly in polys:
        f = poly.fock_operator(cutoff)
        for psi in states:
            worst = max(worst, float(np.linalg.norm(f @ psi)))
    return worst


def verify_ztype(
    code: CodeSpec,
    scale: float,
    cutoff: int,
    polys: Optional[Sequence[AnnihilationPolynomial]] = None,
) -> float:
    """Max residual ||F_i |C_k>|| over generators and encoded codewords,
    on levels 0..cutoff-1 per mode.

    The cutoff must be at least 2, and cutoff**modes must not exceed
    :func:`dim_budget`.  When ``polys`` is omitted they are derived for the
    scale-multiplied constellation; explicitly supplied polynomials must
    vanish on the scaled points.  A cutoff comfortably above scale^2 * max
    shell^2 plus the polynomial degree is needed for small residuals.
    """
    if cutoff < 2:
        raise ValidationError("per-mode cutoff must be at least 2")
    budget = dim_budget()
    if cutoff**code.modes > budget:
        raise ValidationError(
            f"dimension {cutoff ** code.modes} exceeds budget {budget}; "
            f"set {_BUDGET_ENV} to allow this"
        )
    scaled = scale_code(code, scale)
    if polys is None:
        polys = ztype_polynomials(scaled)
    if any(p.modes != code.modes for p in polys):
        raise ValidationError("polynomial mode count does not match the code")
    degree = max(p.degree() for p in polys)
    # Applying a^d to a coherent state with mean occupation `reach` needs the
    # cutoff to clear the Poisson tail shifted by the polynomial degree.
    reach = float((np.abs(scaled.all_points()) ** 2).sum(axis=1).max())
    if cutoff < degree + reach + 25:
        warnings.warn(
            f"cutoff {cutoff} is strained by polynomial degree {degree} "
            f"at scale {scale:g}; residuals will be truncation limited",
            stacklevel=2,
        )
    states = _encoded_states(code, scale, cutoff)
    return ztype_residual_states(polys, states, cutoff)


def verify_xtype(code: CodeSpec, symmetry: Rotation, scale: float) -> float:
    """Invariance residual max_k ||U|C_k> - |C_k>|| / ||C_k|| for a passive
    symmetry U.

    The rotation must be complex-linear (a passive optical unitary) and must
    permute every weighted constellation, each image within GEOM_TOL of its
    point and each weight within GEOM_TOL of its image's; otherwise this
    raises.  With p_a = scale pi(a) the matched point of a, u_a = scale U a
    and delta = u - p, the residual is summed in closed form as

        ||sum_a sqrt(w_a) (|u_a> - |p_a>)||^2 = sum_ab sqrt(w_a w_b) <p_a|p_b>
            [expm1(B_ab) expm1(C_ab) + e^{B_ab + C_ab} expm1(delta_a^* . delta_b)],

    B_ab = delta_a^* . p_b - Re(delta_a^* . (u_a + p_a))/2 and C_ab =
    conj(B_ba), so that <u_a|p_b> = <p_a|p_b> e^B and <p_a|u_b> =
    <p_a|p_b> e^C.  Every term is of order |delta|^2 and nothing cancels:
    a true symmetry reads at roundoff, where 2 - 2 Re <C|U|C> cannot go
    below about sqrt(eps).
    """
    u = symmetry.complex_unitary()
    if u is None:
        raise ValidationError("symmetry is not complex-linear (not a passive unitary)")
    if symmetry.modes != code.modes:
        raise ValidationError("symmetry dimension does not match the code")
    worst = 0.0
    for k, c in enumerate(code.logicals):
        images = c.points @ u.T
        perm = _match_points(c.points, images, GEOM_TOL)
        if perm is None or np.abs(c.weights[perm] - c.weights).max() > GEOM_TOL:
            raise ValidationError(
                f"symmetry does not preserve weighted constellation {k} as a multiset"
            )
        p, images = scale * c.points[perm], scale * images
        delta = images - p
        dc = np.conj(delta)
        b = dc @ p.T - 0.5 * (dc * (images + p)).sum(axis=1).real[:, None]
        cb = np.conj(b.T)
        gram = _pairwise_overlaps(p, p)
        terms = gram * (np.expm1(b) * np.expm1(cb) + np.exp(b + cb) * np.expm1(dc @ delta.T))
        sw = np.sqrt(c.weights)
        res2 = float(np.real(sw @ terms @ sw)) / float(np.real(sw @ gram @ sw))
        worst = max(worst, float(np.sqrt(max(res2, 0.0))))
    return worst
