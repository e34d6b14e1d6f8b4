"""Moment and cubature-degree verification for weighted constellations.

The central object is the weighted monomial moment

    M(p, q) = sum_alpha w_alpha * prod_j conj(alpha_j)^p_j alpha_j^q_j,

whose agreement across logical constellations (up to a total degree t)
is exactly the asymptotic error-correction requirement.  Moments are
evaluated in stacks: for multi-index stacks p (A x n) and q (B x n),
``weighted_moment`` returns the A x B matrix (conj(F_p) * w) @ F_q.T,
where F_u holds one monomial row per multi-index.  Multi-indices are
enumerated once per (modes, degree) as a box |u| <= degree, and monomial
tables are built over such a box one level |u| = k at a time, each row
from a row of the level below times one coordinate.  The parameter
search, the CLI moment table, the KL blocks and the design check all read
their monomials from these tables; the searches grow theirs only as far
as they reach, and the pure-loss search streams its levels.

The module also provides the exact rotation-invariant sphere integral of
real monomials (the right-hand side a spherical design must reproduce), a
design checker, and counting bounds on how many points a degree-t formula
can or must use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .constellation import CodeSpec, WeightedConstellation, embed_complex_to_real
from .errors import ValidationError

MultiIndex = Tuple[int, ...]


def _compositions(n: int, total: int) -> np.ndarray:
    """Every length-n multi-index with |u| == total, one per row, in
    lexicographic order (no rows when total < 0)."""
    if total < 0:
        return np.empty((0, n), dtype=int)
    # Stars and bars: bar positions c_0 < ... < c_{n-2} among total + n - 1
    # slots give u_j = c_j - c_{j-1} - 1 with c_{-1} = -1 and
    # c_{n-1} = total + n - 1; lexicographic bars give lexicographic u.
    bars = np.array(list(combinations(range(total + n - 1), n - 1)), dtype=int)
    edges = np.empty((bars.shape[0], n + 1), dtype=int)
    edges[:, 0], edges[:, -1] = -1, total + n - 1
    edges[:, 1:-1] = bars
    return np.diff(edges, axis=1) - 1


@lru_cache(maxsize=64)
def _index_box(n: int, degree: int) -> np.ndarray:
    """Every length-n multi-index with |u| <= degree, one per row, ordered
    by |u| and lexicographically within each |u| (read-only, shared by
    every caller).  The rows with |u| == k are ``_level(n, k)``."""
    box = np.concatenate([np.empty((0, n), dtype=int)]
                         + [_compositions(n, k) for k in range(degree + 1)])
    box.setflags(write=False)
    return box


def _level(n: int, k: int) -> slice:
    """Rows of ``_index_box(n, degree)`` (any degree >= k) with |u| == k."""
    return slice(comb(n + k - 1, n), comb(n + k, n))


def multi_indices(n: int, total: int) -> Iterator[MultiIndex]:
    """All length-n multi-indices with |u| == total, lexicographic order."""
    return map(tuple, _compositions(n, total).tolist())


def multi_indices_upto(n: int, max_total: int) -> Iterator[MultiIndex]:
    """All length-n multi-indices with |u| <= max_total, by |u| and then
    lexicographically."""
    return map(tuple, _index_box(n, max_total).tolist())


def _next_level(
    prev: np.ndarray, z: np.ndarray, k: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Level k >= 1 of a monomial table (the rows u with |u| == k, in box
    order, one column per point of z) from level k - 1, one multiplication
    per entry.

    A row u whose first nonzero entry is u_j is its parent u - e_j times
    z[:, j].  The level-k rows with u_0 = ... = u_{j-1} = 0 < u_j form one
    block, and their parents, in the same order, are the first rows of
    level k - 1.
    """
    size, n = z.shape
    if out is None:
        out = np.empty((comb(n + k - 1, n - 1), size), dtype=np.result_type(z, float))
    for j in range(n):
        # Level-k rows with u_0 = ... = u_{j-1} = 0 number comb(k + m - 1, m - 1)
        # (m = n - j free modes); the first comb(k + m - 2, m - 2) have u_j = 0.
        m = n - j
        lo = comb(k + m - 2, m - 2) if m > 1 else 0
        hi = comb(k + m - 1, m - 1)
        np.multiply(prev[:hi - lo], z[:, j], out=out[lo:hi])
    return out


def _box_degree(n: int, rows: int) -> int:
    """The smallest degree whose box |u| <= degree has at least ``rows`` rows."""
    degree = 0
    while comb(n + degree, n) < rows:
        degree += 1
    return degree


def _monomials(z: np.ndarray, degree: int, low: Optional[np.ndarray] = None) -> np.ndarray:
    """Monomial table F[i, a] = prod_j z[a, j]**u_i[j] over the rows u_i of
    ``_index_box(modes, degree)``, built level by level (``_next_level``).

    ``low``, the same table to a lower degree, is copied in, and only the
    levels above it are computed.
    """
    size, n = z.shape
    table = np.empty((comb(n + degree, n), size), dtype=np.result_type(z, float))
    if low is None:
        table[:1], done = 1.0, 0
    else:
        table[:len(low)], done = low, _box_degree(n, len(low))
    for k in range(done + 1, degree + 1):
        _next_level(table[_level(n, k - 1)], z, k, out=table[_level(n, k)])
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
    if p.min(initial=0) < 0 or q.min(initial=0) < 0:
        raise ValidationError("multi-index entries must be nonnegative")
    degree = int(max(p.sum(axis=-1).max(initial=0), q.sum(axis=-1).max(initial=0)))
    table = _monomials(c.points, degree)
    row = {u: i for i, u in enumerate(multi_indices_upto(c.modes, degree))}
    fp, fq = (table[[row[u] for u in map(tuple, s.reshape(-1, c.modes).tolist())]] for s in (p, q))
    m = (np.conj(fp) * c.weights) @ fq.T
    return complex(m[0, 0]) if p.ndim == q.ndim == 1 else m


def _check_tol(tol: float):
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and nonnegative (got {tol!r})")


# The pure-loss row streams its levels in blocks of points, each block's
# level under this many bytes, so one level of every point is held at a time.
_STREAM_BYTES = 1 << 20


class _BoxMoments:
    """Weighted moments of every logical constellation over row ranges of
    the box |u| <= degree (rows as in ``_index_box``).

    One monomial table of every point serves all calls.  It starts at
    degree 0 and grows to the highest level a request reaches, so a search
    that stops early never builds the levels above where it stopped.
    """

    def __init__(self, code: CodeSpec):
        self.points = code.all_points()
        self.weights = np.concatenate([c.weights for c in code.logicals])
        self.codeword_rows = code.codeword_rows()
        self._empty()

    def _empty(self):
        self.table = np.ones((1, len(self.points)), dtype=np.result_type(self.points, float))

    def _reach(self, rows: int):
        if rows > len(self.table):
            degree = _box_degree(self.points.shape[1], rows)
            self.table = _monomials(self.points, degree, self.table)

    def level(self, k: int) -> np.ndarray:
        """The table's rows u with |u| == k (a view)."""
        n = self.points.shape[1]
        self._reach(comb(n + k, n))
        return self.table[_level(n, k)]

    def moments(self, ps: slice, qs: slice) -> np.ndarray:
        """moments(ps, qs)[k, i, j] = M_k(p_i, q_j) for box row ranges ps, qs
        (each with an explicit stop)."""
        self._reach(max(ps.stop, qs.stop))
        table = self.table
        return np.array([
            (np.conj(table[ps, cw]) * self.weights[cw]) @ table[qs, cw].T
            for cw in self.codeword_rows
        ])

    def spread(self, ps: slice, qs: slice) -> np.ndarray:
        """spread(ps, qs)[i, j] = max_k |M_k(p_i, q_j) - M_0(p_i, q_j)| over the
        logical constellations k."""
        moms = self.moments(ps, qs)
        return np.abs(moms - moms[0]).max(axis=0)

    def pure_loss_degree(self, k: int, stop: int, tol: float) -> int:
        """The first degree in [k, stop) at which some pure-loss moment
        M(0, q) = sum_a w_a z_a^q, |q| = degree, differs across the logical
        constellations by more than tol; stop when none does.

        The search takes the table's level k and empties the table.  Each
        higher level is computed from the one below in blocks of points
        that never straddle a codeword, and the level below is dropped block
        by block, so the search holds about one level whatever its degree.
        """
        z, w, n = self.points, self.weights, self.points.shape[1]
        top = self.level(k)
        # (codeword, first point, the block's level) for each block of points.
        blocks = [(c, cw.start, top[:, cw]) for c, cw in enumerate(self.codeword_rows)]
        itemsize = top.itemsize
        del top
        self._empty()
        while True:
            sums = np.zeros((len(self.codeword_rows), blocks[0][2].shape[0]), dtype=complex)
            for c, start, level in blocks:
                sums[c] += level @ w[start:start + level.shape[1]]
            if np.abs(sums - sums[0]).max() > tol:
                return k
            k += 1
            if k >= stop:
                return stop
            width = max(1, _STREAM_BYTES // (itemsize * comb(n + k - 1, n - 1)))
            grown = []
            while blocks:
                c, start, prev = blocks.pop()
                for lo in range(0, prev.shape[1], width):
                    part = prev[:, lo:lo + width]
                    a = start + lo
                    grown.append((c, a, _next_level(part, z[a:a + part.shape[1]], k)))
            blocks = grown


def pair_moments(code: CodeSpec, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every moment pair (p, q) with |p| + |q| <= degree, for every logical
    constellation.

    Returns the pairs as rows [p, q] (in the order of
    ``multi_indices_upto(2 * modes, degree)``) and the K x pairs matrix of
    moments M_k(p, q).  Each |p| level is one block against the box
    |q| <= degree - |p|, so exactly these pairs are evaluated.
    """
    if degree < 0:
        raise ValidationError(f"maximum degree must be nonnegative (got {degree})")
    n, degree = code.modes, int(degree)
    box = _index_box(n, degree)
    moments = _BoxMoments(code).moments
    blocks, rows_p, rows_q = [], [], []
    for dp in range(degree + 1):
        ps, qs = _level(n, dp), slice(0, comb(n + degree - dp, n))
        blocks.append(moments(ps, qs).reshape(code.dim, -1))
        p, q = np.arange(ps.start, ps.stop), np.arange(qs.stop)
        rows_p.append(np.repeat(p, q.size))
        rows_q.append(np.tile(q, p.size))
    pairs = np.hstack([box[np.concatenate(rows_p)], box[np.concatenate(rows_q)]])
    # By total degree, then lexicographically (lexsort's last key is primary).
    order = np.lexsort(np.vstack([pairs.T[::-1], pairs.sum(axis=1)]))
    return pairs[order], np.concatenate(blocks, axis=1)[:, order]


def _match_degree(n: int, spread, t_max: int, tol: float) -> int:
    # Blocks of fixed |p| <= |q|, one degree at a time, up to t_max.
    for degree in range(1, t_max + 1):
        for dp in range(degree // 2 + 1):
            if spread(_level(n, dp), _level(n, degree - dp)).max() > tol:
                return degree - 1
    return t_max


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
    if t_max < 0:
        raise ValidationError(f"maximum degree must be nonnegative (got {t_max})")
    _check_tol(tol)
    t_max = int(t_max)
    return _match_degree(code.modes, _BoxMoments(code).spread, t_max, tol)


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
    us = _index_box(D, int(t))
    exact = np.array([sphere_monomial_integral(D, u) for u in us.tolist()])
    return float(np.abs(_monomials(pts, int(t)) @ w - exact).max())


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
            rep = replace(rep, conservative=True)
        reports.append(rep)
    return reports
