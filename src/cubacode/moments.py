"""Moment and cubature-degree verification for weighted constellations.

The central object is the weighted monomial moment

    M(p, q) = sum_alpha w_alpha * prod_j conj(alpha_j)^p_j alpha_j^q_j,

whose agreement across logical constellations (up to a total degree t)
is exactly the asymptotic error-correction requirement.  Moments are
evaluated in stacks: for multi-index stacks p (A x n) and q (B x n),
``weighted_moment`` returns the A x B matrix (conj(F_p) * w) @ F_q.T,
where F_u holds one monomial row per multi-index, built from per-mode
power tables z**k.  The parameter search, the CLI moment table, the KL
blocks and the design check all read their monomials from these tables.

The module also provides the exact rotation-invariant sphere integral of
real monomials (the right-hand side a spherical design must reproduce), a
design checker, and counting bounds on how many points a degree-t formula
can or must use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .constellation import CodeSpec, WeightedConstellation, embed_complex_to_real
from .errors import ValidationError

MultiIndex = Tuple[int, ...]


def multi_indices(n: int, total: int) -> Iterator[MultiIndex]:
    """All length-n multi-indices with |u| == total, lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multi_indices(n - 1, total - head):
            yield (head,) + rest


def multi_indices_upto(n: int, max_total: int) -> Iterator[MultiIndex]:
    for total in range(max_total + 1):
        yield from multi_indices(n, total)


def _monomials(z: np.ndarray, u) -> np.ndarray:
    """Monomial table F[i, a] = prod_j z[a, j]**u[i, j] for a stack of
    multi-indices u (one per row), built from per-mode power tables z**k."""
    u = np.asarray(u, dtype=int).reshape(-1, z.shape[1])
    powers = z.T[:, None, :] ** np.arange(u.max(initial=0) + 1)[None, :, None]
    table = powers[0, u[:, 0]]
    for j in range(1, z.shape[1]):
        table = table * powers[j, u[:, j]]
    return table


def weighted_moment(c: WeightedConstellation, p, q):
    """The weighted monomial moment M(p, q) of a constellation.

    With single multi-indices p, q (length = mode count) the moment is a
    complex number.  With stacks p (A x n) and q (B x n) it is the A x B
    matrix M[i, j] = M(p_i, q_j) = (conj(F_p) * w) @ F_q.T, where F_u is
    the monomial table of the points (one row per multi-index); a single
    index next to a stack counts as a stack of one.
    """
    p = np.asarray(p, dtype=int)
    q = np.asarray(q, dtype=int)
    if any(u.ndim not in (1, 2) or u.shape[-1] != c.modes for u in (p, q)):
        raise ValidationError(
            f"multi-index length must equal the mode count {c.modes} (got {p.shape}, {q.shape})"
        )
    m = (np.conj(_monomials(c.points, p)) * c.weights) @ _monomials(c.points, q).T
    return complex(m[0, 0]) if p.ndim == q.ndim == 1 else m


def moment_match_degree(code: CodeSpec, t_max: int, tol: float = 1e-9) -> int:
    """Largest t <= t_max such that every moment pair (p, q) with total
    degree |p|+|q| <= t agrees across all logical constellations within tol.

    Enumerates multi-index pairs exhaustively, one degree at a time in
    blocks of fixed |p|, and stops at the first block that fails; degree 0
    always matches.  Blocks with |p| <= |q| suffice, as M(q, p) is the
    conjugate of M(p, q).
    """
    if code.dim < 2:
        raise ValidationError("moment matching needs at least two codewords")
    levels = [list(multi_indices(code.modes, k)) for k in range(int(t_max) + 1)]
    for degree in range(1, int(t_max) + 1):
        for dp in range(degree // 2 + 1):
            moms = np.array([weighted_moment(c, levels[dp], levels[degree - dp])
                             for c in code.logicals])
            if np.abs(moms - moms[0]).max() > tol:
                return degree - 1
    return int(t_max)


def sphere_monomial_integral_exact(D: int, u: Sequence[int]) -> Fraction:
    """Exact normalized integral of x^u over the unit sphere S^{D-1}.

    Zero when any exponent is odd; otherwise
        prod_j (u_j - 1)!!  /  prod_{i=1}^{|u|/2} (D + 2i - 2),
    the Gamma-function ratio
        Gamma(D/2) * prod_j Gamma((u_j+1)/2) / (pi^{D/2} * Gamma((D+|u|)/2))
    reduced to integers (surface measure normalized to 1).
    """
    if D < 1:
        raise ValidationError("sphere dimension parameter D must be >= 1")
    u = tuple(int(x) for x in u)
    if len(u) != D:
        raise ValidationError(f"monomial exponent vector must have length D={D}")
    if any(x < 0 for x in u):
        raise ValidationError("monomial exponents must be nonnegative")
    if any(x % 2 == 1 for x in u):
        return Fraction(0)
    num = 1
    for x in u:
        for k in range(x - 1, 0, -2):
            num *= k
    den = 1
    total = sum(u)
    for i in range(1, total // 2 + 1):
        den *= D + 2 * i - 2
    return Fraction(num, den)


def sphere_monomial_integral(D: int, u: Sequence[int]) -> float:
    return float(sphere_monomial_integral_exact(D, u))


def design_moment_deviation(
    points: np.ndarray, weights: np.ndarray, t: int
) -> float:
    """Max |weighted moment - sphere integral| over real monomials of
    degree <= t, for unit-norm real points of any dimension."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    D = pts.shape[1]
    us = list(multi_indices_upto(D, int(t)))
    exact = np.array([sphere_monomial_integral(D, u) for u in us])
    return float(np.abs(_monomials(pts, us) @ w - exact).max())


def is_spherical_design(c: WeightedConstellation, t: int, tol: float = 1e-9) -> bool:
    """True iff the real-embedded, radius-normalized points reproduce every
    sphere monomial integral of degree <= t within tol.

    The constellation must live on a single shell.
    """
    radii = c.radii()
    if radii.max() - radii.min() > 1e-9:
        raise ValidationError("spherical design check needs a single-shell constellation")
    if radii.max() <= 0:
        raise ValidationError("spherical design check needs nonzero radius")
    pts = embed_complex_to_real(c.points) / radii[:, None]
    return design_moment_deviation(pts, c.weights, t) <= tol


# ---------------------------------------------------------------------------
# Constellation-size bounds
# ---------------------------------------------------------------------------


def _dim_poly_sphere(D: int, e: int) -> int:
    # Polynomials of degree <= e restricted to S^{D-1}.
    if e == 0:
        return 1
    return comb(D + e - 1, e) + comb(D + e - 2, e - 1)


def _dim_poly_space(D: int, e: int) -> int:
    return comb(D + e, e)


def _dim_hom(D: int, e: int) -> int:
    # Homogeneous polynomials of degree e in D variables.
    return comb(D + e - 1, e)


def _dim_hom_star_space(D: int, e: int) -> int:
    # Direct sum Hom_e + Hom_{e-2} + ... (parity tower used by the odd-degree
    # lower bound on R^D).
    return sum(_dim_hom(D, e - 2 * i) for i in range(e // 2 + 1))


@dataclass(frozen=True)
class BoundsReport:
    """Point-count bounds for a degree-t cubature formula on a domain.

    ``fisher_min`` is the dimension-count lower bound, ``moller_min`` its
    odd-degree strengthening (None when t is even), ``tchakaloff_max`` the
    existence upper bound.  ``tight`` marks saturation of the applicable
    lower bound by ``actual``.  ``conservative`` flags reports where the
    domain was widened (multi-shell supports reported against full space).
    """

    domain: str
    D: int
    t: int
    fisher_min: int
    moller_min: Optional[int]
    tchakaloff_max: int
    actual: int
    tight: bool
    conservative: bool = False

    def __post_init__(self):
        if self.fisher_min > self.tchakaloff_max:
            raise ValidationError("inconsistent bounds: lower exceeds upper")


def size_bounds(
    domain: str, D: int, t: int, actual: int, excludes_origin: bool = True
) -> BoundsReport:
    """Counting bounds for a degree-t formula on sphere(D) or space(D).

    All arithmetic is exact integer arithmetic.  For odd t = 2e+1 the
    strengthened lower bound is 2*dim P*_e, reduced by one only when the
    origin is an admissible node (excludes_origin=False) and e is even.
    """
    if domain not in ("sphere", "space"):
        raise ValidationError("domain must be 'sphere' or 'space'")
    if t < 0 or D < 1:
        raise ValidationError("need t >= 0 and D >= 1")
    e_half = t // 2
    if domain == "sphere":
        fisher = _dim_poly_sphere(D, e_half)
        tchakaloff = _dim_poly_sphere(D, t)
        hom_star = _dim_hom(D, e_half)  # P*_e on the sphere collapses to Hom_e
    else:
        fisher = _dim_poly_space(D, e_half)
        tchakaloff = _dim_poly_space(D, t)
        hom_star = _dim_hom_star_space(D, e_half)
    moller = None
    if t % 2 == 1:
        moller = 2 * hom_star
        if not excludes_origin and domain == "space" and e_half % 2 == 0:
            moller -= 1
    lower = moller if moller is not None else fisher
    return BoundsReport(
        domain=domain,
        D=D,
        t=t,
        fisher_min=fisher,
        moller_min=moller,
        tchakaloff_max=tchakaloff,
        actual=int(actual),
        tight=(int(actual) == lower),
    )


def code_size_bounds(code: CodeSpec, t: Optional[int] = None) -> list:
    """BoundsReport per logical constellation.  Single-shell codes are
    reported against sphere(2n); multi-shell codes against space(2n) with
    the conservative flag set (shell-restricted polynomial dimensions are
    not computed)."""
    degree = code.claimed_degree if t is None else int(t)
    if degree is None:
        raise ValidationError("no degree available: pass t or use a code with claimed_degree")
    multi_shell = len(code.shells) > 1
    domain = "space" if multi_shell else "sphere"
    reports = []
    for c in code.logicals:
        rep = size_bounds(domain, 2 * code.modes, degree, actual=c.size)
        if multi_shell:
            rep = BoundsReport(
                domain=rep.domain,
                D=rep.D,
                t=rep.t,
                fisher_min=rep.fisher_min,
                moller_min=rep.moller_min,
                tchakaloff_max=rep.tchakaloff_max,
                actual=rep.actual,
                tight=rep.tight,
                conservative=True,
            )
        reports.append(rep)
    return reports
