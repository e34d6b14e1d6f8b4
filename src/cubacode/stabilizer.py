"""Stabilizer-style verification of code constellations.

Two families of checks.  Z-type: polynomials P in the mode amplitudes that
vanish on every constellation point induce annihilation-operator products
F = P(a) with F|C_k> = 0, verified here by applying F to the encoded
codewords in a truncated Fock space: n modes, levels 0..cutoff-1 each.
F acts term by term as an index shift of the codeword tensor: no operator
matrix, and O(points cutoff^(n-1) + cutoff^n) numbers, at most _ZCHECK_BYTES.
This is the package's only truncated space; tests build their
Fock-coefficient references from the same vectors.
X-type: passive unitaries permuting each weighted constellation leave the
codewords invariant; every such check, phase rotation or not, is one
closed-form sum over coherent-state overlaps with no Fock build and no
cancellation.  Whether U permutes a constellation is decided by the
routine that decides it for the orbit table (``constellation._symmetry``),
with one relative tolerance, GEOM_TOL here and 8 ulps there, applied to
each codeword alone.

Only verification is performed; dissipative dynamics are out of scope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .constellation import (
    _DISTANCE_BYTES,
    GEOM_TOL,
    CodeSpec,
    Rotation,
    _symmetry,
    as_amplitude,
    scale_code,
)
from .errors import NumericalFailure, ValidationError
from .klcheck import _log_poisson, _pairwise_overlaps

_ZCHECK_BYTES = 1 << 28  # the most bytes the Z-check may hold at once
# The Z-check holds at least 16 (K + 3) cutoff^modes bytes, so every cutoff
# that check_cutoff admits is below this: a term with an exponent this
# large would vanish on every space the check builds, and is refused.
MAX_EXPONENT = _ZCHECK_BYTES // 16


def _coherent_rows(alphas: np.ndarray, cutoff: int) -> np.ndarray:
    """rows[p, k] = e^{-|a_p|^2/2} a_p^k / sqrt(k!) for k < cutoff, one row
    per amplitude a_p, not renormalized.

    Each row starts at its largest coefficient, level k* = min(floor(|a|^2),
    cutoff - 1), with modulus sqrt(Poisson(k*; |a|^2)) from the deviance
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
        if any(e >= MAX_EXPONENT for u, _ in terms for e in u):
            raise ValidationError(f"exponents must be below the cap of {MAX_EXPONENT}, above "
                                  f"every cutoff the Z-check admits")
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
    constant on each radius class of the union, comparing the phases
    e^{i g theta} within each class; the generator is then prod_s (alpha^g -
    rho_s) with rho_s = alpha^g at each class's first point.  Multimode
    codes are supported only when the union factorizes as a per-mode
    product; the polytope constellations do not, and their generators must
    be supplied explicitly.
    """
    pts = code.all_points()
    if code.modes == 1:
        return [_single_mode_generator(pts[:, 0])]
    # Product structure: union == cartesian product of per-mode value sets.
    per_mode = [_classes(pts[:, j]) for j in range(code.modes)]
    labels = np.stack([label for _, label in per_mode], axis=1)
    if (int(np.prod([len(firsts) for firsts, _ in per_mode])) == len(pts)
            and len(np.unique(labels, axis=0)) == len(pts)):
        return [
            _lift_single_mode(_single_mode_generator(pts[firsts, j]), j, code.modes)
            for j, (firsts, _) in enumerate(per_mode)
        ]
    raise ValidationError(
        "no generator rule for this constellation: supply polynomials explicitly"
    )


def _classes(values: np.ndarray, tol: float = GEOM_TOL) -> tuple:
    """Values within tol of each other, grouped greedily in order: the
    first value not yet in a class opens one, which takes every value
    within tol of it that no earlier class took.  Returns (firsts, label):
    the opening indices, ascending, and each value's class."""
    firsts, label = [], np.full(len(values), -1)
    while (free := label < 0).any():
        first = int(free.argmax())
        label[free & (np.abs(values - values[first]) <= tol)] = len(firsts)
        firsts.append(first)
    return np.array(firsts), label


def _single_mode_generator(values: np.ndarray) -> AnnihilationPolynomial:
    """prod_s (alpha^g - rho_s) over the radius classes s of ``values``,
    for the least g <= len(values) at which the phases e^{i g theta} agree
    within every class (to GEOM_TOL, relative to the class's radius^g), and
    rho_s = alpha^g at the class's first value.  The phases are taken
    relative to each class's first value, in turns, for a block of powers
    g at a time."""
    firsts, label = _classes(np.abs(values))
    # A value at the origin has phase 0.
    turns = np.angle(values * np.conj(values[firsts][label])) / (2.0 * np.pi)
    size = len(values)
    step = max(1, _DISTANCE_BYTES // (turns.itemsize * size))
    for lo in range(1, size + 1, step):
        powers = np.arange(lo, min(lo + step, size + 1))
        x = powers[:, None] * turns
        agree = (np.abs(x - np.rint(x)) <= GEOM_TOL / (2.0 * np.pi)).all(axis=1)
        if agree.any():
            g = int(powers[agree.argmax()])
            return _poly_from_roots_in_power(g, (values[firsts] ** g).tolist())
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


def _zcheck_bytes(code: CodeSpec, cutoff: int) -> int:
    """Bytes the Z-check holds at once, 16 per complex entry: _coherent_rows'
    rows and four working copies, the widest codeword's last two partial
    products, K codewords and three working tensors (not O(points) arrays)."""
    cutoff = int(cutoff)
    dim, sizes = cutoff**code.modes, [c.size for c in code.logicals]
    partial = max(sizes) * (dim // cutoff + dim // cutoff**2)
    return 16 * (5 * sum(sizes) * code.modes * cutoff + partial + (len(sizes) + 3) * dim)


def check_cutoff(code: CodeSpec, cutoff: int) -> None:
    """Refuse a Z-check cutoff below 2, or one at which the check would hold
    more than _ZCHECK_BYTES at once (counted before any array is built)."""
    if cutoff < 2:
        raise ValidationError("per-mode cutoff must be at least 2")
    need = _zcheck_bytes(code, cutoff)
    if need > _ZCHECK_BYTES:
        raise ValidationError(f"the Z-check at cutoff {cutoff} needs {need} bytes, "
                              f"more than its cap of {_ZCHECK_BYTES}")


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

    The cutoff must pass :func:`check_cutoff`.  When ``polys`` is omitted
    they are derived for the scale-multiplied constellation; explicitly
    supplied polynomials must vanish on the scaled points.  Small residuals
    need a cutoff above the largest |alpha|^2 of the scaled code plus some
    widths sqrt(|alpha|^2) of its Poisson distribution plus the polynomial
    degree; a cutoff below degree + reach + 8 sqrt(reach) + 10 warns.
    """
    check_cutoff(code, cutoff)
    scaled = scale_code(code, scale)
    if polys is None:
        polys = ztype_polynomials(scaled)
    if any(p.modes != code.modes for p in polys):
        raise ValidationError("polynomial mode count does not match the code")
    degree = max(p.degree() for p in polys)
    # Applying a^d to a coherent state with mean occupation `reach` needs the
    # cutoff to clear the Poisson tail, of width sqrt(reach), shifted by the
    # polynomial degree.
    reach = float((np.abs(scaled.all_points()) ** 2).sum(axis=1).max())
    if cutoff < degree + reach + 8.0 * np.sqrt(reach) + 10:
        warnings.warn(
            f"cutoff {cutoff} is strained by polynomial degree {degree} "
            f"at scale {scale:g}; residuals will be truncation limited",
            stacklevel=2,
        )
    states = _encoded_states(code, scale, cutoff)
    return ztype_residual_states(polys, states, cutoff)


def verify_xtype(code: CodeSpec, symmetry: Rotation, scale: float) -> float:
    """Invariance residual max_k ||U|C_k> - |C_k>|| / ||C_k|| for a passive
    symmetry U (``symmetry.matrix``), which must map each weighted
    constellation onto itself (``constellation._symmetry`` at rtol
    GEOM_TOL, codeword by codeword) or this raises.  With p_a = scale pi(a)
    the matched point of a, u_a = scale U a and delta = u - p, the residual
    is summed in closed form as

        ||sum_a sqrt(w_a) (|u_a> - |p_a>)||^2 = sum_ab sqrt(w_a w_b) <p_a|p_b>
            [expm1(B_ab) expm1(C_ab) + e^{B_ab + C_ab} expm1(delta_a^* . delta_b)],

    B_ab = delta_a^* . p_b - Re(delta_a^* . (u_a + p_a))/2 and C_ab =
    conj(B_ba), so that <u_a|p_b> = <p_a|p_b> e^B and <p_a|u_b> =
    <p_a|p_b> e^C.  Every term is of order |delta|^2 and nothing cancels:
    a true symmetry reads at roundoff, where 2 - 2 Re <C|U|C> cannot go
    below about sqrt(eps).
    """
    if symmetry.modes != code.modes:
        raise ValidationError("symmetry dimension does not match the code")
    worst = 0.0
    for k, c in enumerate(code.logicals):
        images = c.points @ symmetry.matrix.T
        found = _symmetry(c.points, c.weights, np.zeros(c.size, dtype=int), images, GEOM_TOL)
        if found is None:
            raise ValidationError(f"symmetry does not preserve weighted constellation {k} "
                                  "as a multiset")
        p, images = scale * c.points[found[0]], scale * images
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
