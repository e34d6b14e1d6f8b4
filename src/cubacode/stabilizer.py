"""Stabilizer-style verification of code constellations.

Two families of checks.  Z-type: polynomials P in the mode amplitudes that
vanish on every constellation point induce annihilation-operator products
F = P(a) with F|C_k> = 0, verified here by applying F to the encoded
codewords in a truncated Fock space.  X-type: passive unitaries permuting
each weighted constellation leave the codewords invariant; phase rotations
are built exactly in Fock space, general passive symmetries are checked
analytically through coherent-state overlaps (no Fock build).

Only verification is performed; dissipative dynamics are out of scope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .constellation import (
    GEOM_TOL,
    CodeSpec,
    Rotation,
    WeightedConstellation,
    apply_rotation,
    scale_code,
)
from .errors import ValidationError
from .fock import FockSpace, _raw_codeword_vectors, annihilation
from .klcheck import _pairwise_overlaps


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

    def fock_operator(self, space: FockSpace) -> np.ndarray:
        """F = sum_u c_u prod_j a_j^{u_j} on the truncated space."""
        if space.modes != self.modes:
            raise ValidationError("space mode count does not match the polynomial")
        a_single = annihilation(space.cutoff)
        f = np.zeros((space.dim, space.dim), dtype=complex)
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


def _encoded_states(code: CodeSpec, scale: float, space: FockSpace) -> List[np.ndarray]:
    """The normalized codeword vectors, truncated without a tail check."""
    raw, _ = _raw_codeword_vectors(code, scale, space)
    return [vec / np.linalg.norm(vec) for vec in raw.T]


def ztype_residual_states(
    polys: Sequence[AnnihilationPolynomial], states: Sequence[np.ndarray], space: FockSpace
) -> float:
    """Max ||F_i |psi>|| over the given unit vectors."""
    worst = 0.0
    for poly in polys:
        f = poly.fock_operator(space)
        for psi in states:
            worst = max(worst, float(np.linalg.norm(f @ psi)))
    return worst


def verify_ztype(
    code: CodeSpec,
    scale: float,
    space: FockSpace,
    polys: Optional[Sequence[AnnihilationPolynomial]] = None,
) -> float:
    """Max residual ||F_i |C_k>|| over generators and encoded codewords.

    When ``polys`` is omitted they are derived for the scale-multiplied
    constellation; explicitly supplied polynomials must vanish on the
    scaled points.  A cutoff comfortably above scale^2 * max shell^2 plus
    the polynomial degree is needed for small residuals.
    """
    scaled = scale_code(code, scale)
    if polys is None:
        polys = ztype_polynomials(scaled)
    degree = max(p.degree() for p in polys)
    # Applying a^d to a coherent state with mean occupation `reach` needs the
    # cutoff to clear the Poisson tail shifted by the polynomial degree.
    reach = float((np.abs(scaled.all_points()) ** 2).sum(axis=1).max())
    if space.cutoff < degree + reach + 25:
        warnings.warn(
            f"cutoff {space.cutoff} is strained by polynomial degree {degree} "
            f"at scale {scale:g}; residuals will be truncation limited",
            stacklevel=2,
        )
    states = _encoded_states(code, scale, space)
    return ztype_residual_states(polys, states, space)


def _match_permutation(c: WeightedConstellation, rotated: WeightedConstellation):
    """Index map pi with rotated.points[i] == c.points[pi(i)], or None."""
    d2 = np.abs(rotated.points[:, None, :] - c.points[None, :, :]) ** 2
    dist = d2.sum(axis=2)
    perm = dist.argmin(axis=1)
    if len(set(perm.tolist())) != c.size:
        return None
    if dist[np.arange(c.size), perm].max() > GEOM_TOL**2:
        return None
    if np.abs(rotated.weights - c.weights[perm]).max() > GEOM_TOL:
        return None
    return perm


def verify_xtype(code: CodeSpec, symmetry: Rotation, scale: float, space: FockSpace) -> float:
    """Invariance residual max_k || U|C_k> - |C_k> || for a passive symmetry.

    The rotation must be complex-linear (a passive optical unitary) and must
    permute every weighted constellation; otherwise this raises.  Per-mode
    phase rotations are built exactly in Fock space; other passive
    symmetries are checked analytically by re-summing coherent components.
    """
    u = symmetry.complex_unitary()
    if u is None:
        raise ValidationError("symmetry is not complex-linear (not a passive unitary)")
    if symmetry.modes != code.modes:
        raise ValidationError("symmetry dimension does not match the code")
    perms = []
    for k, c in enumerate(code.logicals):
        perm = _match_permutation(c, apply_rotation(c, symmetry))
        if perm is None:
            raise ValidationError(
                f"symmetry does not preserve weighted constellation {k} as a multiset"
            )
        perms.append(perm)

    off_diag = u - np.diag(np.diag(u))
    if np.abs(off_diag).max() <= 1e-12:
        # Exact Fock build: U = exp(i sum_j phi_j n_j) is diagonal.
        phases = np.angle(np.diag(u))
        levels = np.indices(space.shape()).reshape(space.modes, -1)
        diag = np.exp(1j * (phases @ levels))
        worst = 0.0
        for psi in _encoded_states(code, scale, space):
            worst = max(worst, float(np.linalg.norm(diag * psi - psi)))
        return worst

    # Analytic path: || sum_a sqrt(w_a)(|U a> - |pi(a)>) || via overlaps.
    worst = 0.0
    for c in code.logicals:
        rotated = apply_rotation(c, symmetry)
        perm = _match_permutation(c, rotated)
        pts_u = scale * rotated.points
        pts_p = scale * c.points[perm]
        sw = np.sqrt(c.weights)
        guu = _pairwise_overlaps(pts_u, pts_u)
        gup = _pairwise_overlaps(pts_u, pts_p)
        gpp = _pairwise_overlaps(pts_p, pts_p)
        norm_raw = float(np.real(sw @ gpp @ sw))
        res2 = np.real(sw @ (guu - gup - np.conj(gup.T) + gpp) @ sw) / norm_raw
        worst = max(worst, float(np.sqrt(max(res2, 0.0))))
    return worst
