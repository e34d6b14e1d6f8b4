"""Stabilizer-style verification of code constellations.

Two families of checks.  Z-type: polynomials P in the mode amplitudes that
vanish on every constellation point induce annihilation-operator products
F = P(a) with F|C_k> = 0, verified here by applying F to the encoded
codewords in a truncated Fock space: n modes, levels 0..cutoff-1 each,
within a dimension budget.  F acts term by term as an index shift of the
codeword tensor, so the check holds O(cutoff^n) numbers and no operator
matrix.  This is the package's only truncated space; tests build their
Fock-coefficient references from the same vectors.
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
from .errors import NumericalFailure, ValidationError
from .klcheck import _log_poisson, _pairwise_overlaps

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


def _coherent_rows(alphas: np.ndarray, cutoff: int) -> np.ndarray:
    """rows[p, k] = e^{-|a_p|^2/2} a_p^k / sqrt(k!) for k < cutoff, one row
    per amplitude a_p, not renormalized.

    Each row starts at its largest coefficient, level k* = min(floor(|a|^2),
    cutoff - 1), with modulus sqrt(Poisson(k*; |a|^2)) from the saddle-point
    form of klcheck._log_poisson, and recurs outward both ways by the ratios
    c_k / c_{k-1} = a / sqrt(k): a running product of ratios of modulus at
    most one, so nothing overflows and a far tail underflows to zero while
    the levels near |a|^2 keep full precision.  Started at level 0, as for
    |a| < 1, e^{-|a|^2/2} underflows once |a|^2 passes about 1490.
    """
    lam = np.abs(alphas) ** 2
    peak = np.minimum(np.floor(lam), cutoff - 1).astype(int)
    log_start = np.where(peak > 0, _log_poisson(peak, np.maximum(lam, 1.0)), -lam)
    start = np.exp(0.5 * log_start + 1j * peak * np.angle(alphas))
    k, peak, a = np.arange(cutoff), peak[:, None], alphas[:, None]
    up = np.where(k > peak, a / np.sqrt(np.maximum(k, 1)), 1.0)
    # Where k* = 0 this branch is masked, and its division needs a nonzero a.
    down = np.where(k < peak, np.sqrt(k + 1) / np.where(peak > 0, a, 1.0), 1.0)
    return start[:, None] * np.cumprod(up, axis=1) * np.cumprod(down[:, ::-1], axis=1)[:, ::-1]


def _product_sum(rows: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_p coef_p rows[p, 0] (x) rows[p, 1] (x) ... for rows of shape
    (points, modes, cutoff), in the C-order basis of the level tuple (mode 0
    most significant, as np.kron with mode 0 as the left factor)."""
    acc = np.asarray(coef, dtype=complex)[:, None]
    for j in range(rows.shape[1] - 1):
        acc = (acc[:, :, None] * rows[:, j, None, :]).reshape(len(acc), -1)
    return (acc.T @ rows[:, -1]).ravel()


def coherent_fock(point, cutoff: int) -> np.ndarray:
    """The tensor product of per-mode coherent states truncated to levels
    0..cutoff-1, coefficients e^{-|a|^2/2} a^k / sqrt(k!), not renormalized.

    The basis is C-order over the level tuple (mode 0 most significant),
    matching np.kron with mode 0 as the left factor.
    """
    return _product_sum(_coherent_rows(as_amplitude(point), cutoff)[None], np.ones(1))


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
    """The truncated codeword vectors sum_a sqrt(w_a)|scale*a>, normalized.

    A codeword that vanishes in the truncated space (every point's
    coefficients underflow below the cutoff) cannot be normalized and
    raises NumericalFailure.
    """
    rows = _coherent_rows(scale * code.all_points().ravel(), cutoff)
    rows = rows.reshape(-1, code.modes, cutoff)
    states = []
    for k, (c, span) in enumerate(zip(code.logicals, code.codeword_rows())):
        vec = _product_sum(rows[span], np.sqrt(c.weights))
        norm = float(np.linalg.norm(vec))
        if not (0.0 < norm < np.inf):
            raise NumericalFailure(
                f"codeword {k} has norm {norm:g} on levels 0..{cutoff - 1} at scale {scale:g}"
            )
        states.append(vec / norm)
    return states


def _apply_polynomial(poly: AnnihilationPolynomial, psi: np.ndarray, cutoff: int) -> np.ndarray:
    """F psi for F = P(a) on levels 0..cutoff-1 per mode, term by term as an
    index shift of the (cutoff,)*modes tensor: (prod_j a_j^{e_j} psi)[k] =
    prod_j sqrt((k_j + e_j)! / k_j!) psi[k + e], and a term with some
    e_j >= cutoff is zero.  No operator matrix is formed."""
    roots = np.sqrt(np.arange(cutoff + 1))
    tensor = psi.reshape((cutoff,) * poly.modes)
    out = np.zeros_like(tensor)
    for u, c in poly.terms:
        if max(u) >= cutoff:
            continue
        factor = c
        for e in u:
            ladder = np.ones(cutoff - e)
            for i in range(1, e + 1):
                ladder *= roots[i:cutoff - e + i]
            factor = np.multiply.outer(factor, ladder)
        out[tuple(slice(0, cutoff - e) for e in u)] += factor * tensor[
            tuple(slice(e, None) for e in u)]
    return out.ravel()


def ztype_residual_states(
    polys: Sequence[AnnihilationPolynomial], states: Sequence[np.ndarray], cutoff: int
) -> float:
    """Max ||F_i |psi>|| over the given unit vectors.  A residual that is
    not finite raises NumericalFailure rather than reading as zero."""
    worst = 0.0
    for poly in polys:
        for psi in states:
            res = float(np.linalg.norm(_apply_polynomial(poly, psi, cutoff)))
            if not np.isfinite(res):
                raise NumericalFailure(f"Z-check residual is {res} at cutoff {cutoff}")
            worst = max(worst, res)
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
