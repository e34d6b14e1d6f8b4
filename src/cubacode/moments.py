"""Moment and cubature-degree verification for weighted constellations.

The central object is the weighted monomial moment

    M(p, q) = sum_alpha w_alpha * prod_j conj(alpha_j)^p_j alpha_j^q_j,

whose agreement across logical constellations (up to a total degree t)
is exactly the asymptotic error-correction requirement.  Moments are
evaluated in blocks: for multi-index stacks p (A x n) and q (B x n), the
A x B matrix (conj(F_p) * w) @ F_q.T, where F_u holds one monomial row per
multi-index.  ``pair_moments`` gives every pair up to a total degree and
``pairs_match_degree`` reads the match degree off them.  Multi-indices
are enumerated once per (modes, degree) as a box |u| <= degree, and
monomial tables are built over such a box one level |u| = k at a time,
each row from a row of the level below times one coordinate.  The
parameter search, the CLI moment table and the KL blocks all read their
monomials from these tables; the searches grow theirs only as far as they
reach, and the pure-loss search streams its levels.

The codes' moments are summed over orbits (``_BoxMoments``): when the
phase rotation e^{2 pi i/d} permutes a code's points
(``CodeSpec.orbits``), point t of orbit o is e^{2 pi i t/d} r_o,
and M_k(p, q) = sum_o conj(r_o^p) r_o^q D_k[(|q| - |p|) mod d, o] with
D_k[c, o] = sum_t e^{2 pi i c t/d} w_(o,t) [owner = k], the DFT of the
weights along each orbit.  This is the selection rule of a
rotation-symmetric code: only the Fourier component c = |q| - |p| of each
orbit's weights enters M(p, q).  D_k is zero on the orbits that k does
not visit, so every codeword is summed over every orbit.  The tables then
have n = N/d columns, not N; a code with no such rotation has d = 1.

The module also provides counting bounds on how many points a degree-t
formula can or must use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from .constellation import GEOM_TOL, CodeSpec, shell_radii
from .errors import ValidationError, count_text

MultiIndex = Tuple[int, ...]

# The most moment pairs (p, q) that pair_moments evaluates.  The tests,
# README and benchmark ask for at most 495; cube_orthoplex --D 8 at degree
# 12, the largest case timed so far, needs 125,970.
MAX_PAIRS = 2**20
# The largest degree size_bounds takes (the tests, README and benchmark ask
# for at most 59).  Its bounds grow like t^D and are printed in full.
MAX_BOUNDS_DEGREE = 2**20


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


def _overflow(degree: int) -> ValidationError:
    return ValidationError(f"the moments of degree {degree} are not finite: they grow like "
                           f"the amplitudes to the power {degree}, past the range of a double")


def _check_tol(tol: float):
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and nonnegative (got {tol!r})")


# The pure-loss row streams its levels in blocks of orbits, each block's
# level under this many bytes, so one level of every orbit is held at a time.
_STREAM_BYTES = 1 << 20


class _BoxMoments:
    """Weighted moments of every logical constellation over row ranges of
    the box |u| <= degree (rows as in ``_index_box``), summed over the
    orbits of the code's rotation symmetry (``code.orbits``).

    Point (o, t) of an orbit is e^{2 pi i t/d} r_o, so its monomial pair is
    e^{2 pi i t (|q| - |p|)/d} conj(r_o^p) r_o^q, and

        M_k(p, q) = sum_o conj(r_o^p) r_o^q D[k, (|q| - |p|) mod d, o],
        D[k, c, o] = sum_t e^{2 pi i c t/d} w_(o,t) [owner = k],

    the selection rule of a rotation-symmetric code: the DFT of the
    weights along each orbit (``weights``, [K, d, n]).  Every codeword is
    summed over every orbit, D being zero where the codeword has no point.

    One monomial table of the representatives serves all calls.  It starts
    at degree 0 and grows to the highest level a request reaches, so a
    search that stops early never builds the levels above where it
    stopped.  Moments past the range of a double are formed without a
    warning, and the searches refuse the first block that holds one
    (``_overflow``).  (Each method takes its own errstate: under numpy 1.x
    one instance entered twice at once restores the wrong state.)
    """

    def __init__(self, code: CodeSpec):
        orbits = code.orbits
        self.points = orbits.reps
        self.d = orbits.d
        self.weights = np.ascontiguousarray(orbits.spectrum(orbits.weights).transpose(2, 0, 1))
        self._empty()

    def _empty(self):
        self.table = np.ones((1, len(self.points)), dtype=np.result_type(self.points, float))
        self.degrees = np.zeros(1, dtype=int)  # |u| of each row of the table

    def _reach(self, rows: int):
        if rows > len(self.table):
            n = self.points.shape[1]
            degree = _box_degree(n, rows)
            self.table = _monomials(self.points, degree, self.table)
            self.degrees = _index_box(n, degree).sum(axis=1)

    def level(self, k: int) -> np.ndarray:
        """The table's rows u with |u| == k (a view)."""
        n = self.points.shape[1]
        self._reach(comb(n + k, n))
        return self.table[_level(n, k)]

    @np.errstate(over="ignore", invalid="ignore")
    def moments(self, ps: slice, qs: slice) -> np.ndarray:
        """moments(ps, qs)[k, i, j] = M_k(p_i, q_j) for box row ranges ps
        (one level) and qs (each with an explicit stop); inf or nan past
        the range of a double."""
        self._reach(max(ps.stop, qs.stop))
        table, degrees, d = self.table, self.degrees, self.d
        level = degrees[ps.start]
        if d == 1 or degrees[qs.start] == degrees[qs.stop - 1]:
            # Every q has the same weight row, which then goes with the
            # smaller p side.
            turn = (degrees[qs.start] - level) % d
            return (np.conj(table[ps]) * self.weights[:, turn, None]) @ table[qs].T
        # The weight row of each q against the level of p.
        right = self.weights[:, (degrees[qs] - level) % d]
        right *= table[qs]
        return np.conj(table[ps]) @ right.swapaxes(1, 2)

    @np.errstate(over="ignore", invalid="ignore")
    def spread(self, ps: slice, qs: slice) -> float:
        """The largest |M_k(p, q) - M_0(p, q)| over the pairs of the row
        ranges and the logical constellations k; a block whose deviations
        are not finite raises ``_overflow`` of its least such degree."""
        moms = self.moments(ps, qs)
        dev = np.abs(moms - moms[0])
        spread = float(dev.max())
        if not spread < np.inf:
            bad = ~np.isfinite(dev).all(axis=(0, 1))
            raise _overflow(int(self.degrees[ps.start] + self.degrees[qs][bad].min()))
        return spread

    @np.errstate(over="ignore", invalid="ignore")
    def pure_loss_degree(self, k: int, stop: int, tol: float) -> int:
        """The first degree in [k, stop) at which some pure-loss moment
        M(0, q) = sum_a w_a z_a^q, |q| = degree, differs across the logical
        constellations by more than tol; stop when none does.

        The search takes the table's level k and empties the table.  Each
        higher level is computed from the one below in blocks of orbits,
        and the level below is dropped block by block, so the search holds
        about one level whatever its degree.
        """
        z, n = self.points, self.points.shape[1]
        # (first orbit, the block's level) for each block of orbits.
        blocks = [(0, self.level(k))]
        itemsize = blocks[0][1].itemsize
        self._empty()
        while True:
            sums = np.zeros((len(self.weights), blocks[0][1].shape[0]), dtype=complex)
            for start, level in blocks:
                sums += self.weights[:, k % self.d, start:start + level.shape[1]] @ level.T
            spread = float(np.abs(sums - sums[0]).max())
            if not spread < np.inf:
                raise _overflow(k)
            if spread > tol:
                return k
            k += 1
            if k >= stop:
                return stop
            width = max(1, _STREAM_BYTES // (itemsize * comb(n + k - 1, n - 1)))
            grown = []
            while blocks:
                start, prev = blocks.pop()
                for lo in range(0, prev.shape[1], width):
                    part = prev[:, lo:lo + width]
                    a = start + lo
                    grown.append((a, _next_level(part, z[a:a + part.shape[1]], k)))
            blocks = grown


def pair_moments(code: CodeSpec, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every moment pair (p, q) with |p| + |q| <= degree, for every logical
    constellation.

    Returns the pairs as rows [p, q] (in the order of
    ``multi_indices_upto(2 * modes, degree)``) and the K x pairs matrix of
    moments M_k(p, q).  Each |p| level is one block against the box
    |q| <= degree - |p|, so exactly these pairs are evaluated.  Moments
    that are not finite raise ``_overflow`` of their least degree.
    """
    if degree < 0:
        raise ValidationError(f"maximum degree must be nonnegative (got {degree})")
    n, degree = code.modes, int(degree)
    pairs = comb(2 * n + degree, degree)
    if pairs > MAX_PAIRS:
        raise ValidationError(f"the maximum degree needs {count_text(pairs)} moment pairs "
                              f"(p, q), more than the cap of {MAX_PAIRS}")
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
    pairs, moms = pairs[order], np.concatenate(blocks, axis=1)[:, order]
    finite = np.isfinite(moms).all(axis=0)
    if not finite.all():
        raise _overflow(int(pairs[finite.argmin()].sum()))
    return pairs, moms


def _match_degree(spreads: Iterable[Tuple[int, float]], t_max: int, tol: float) -> int:
    """The largest t <= t_max with every moment pair of total degree 1..t
    agreeing within tol, from (degree, spread) blocks in ascending degree,
    spread being the largest deviation of a block's pairs; degree 0 always
    matches.  The blocks are read only up to the first that fails."""
    for degree, spread in spreads:
        if degree > 0 and spread > tol:
            return degree - 1
    return t_max


def _level_spreads(box: _BoxMoments, t_max: int) -> Iterator[Tuple[int, float]]:
    """(degree, spread) of the blocks |p| = dp <= |q| = degree - dp for
    degree 1..t_max, each evaluated when it is read.  Blocks with
    |p| <= |q| suffice, as M(q, p) is the conjugate of M(p, q)."""
    n = box.points.shape[1]
    return ((degree, box.spread(_level(n, dp), _level(n, degree - dp)))
            for degree in range(1, t_max + 1) for dp in range(degree // 2 + 1))


def pairs_match_degree(pairs: np.ndarray, moments: np.ndarray, tol: float = 1e-9) -> int:
    """The largest t such that every moment pair (p, q) with total degree
    |p| + |q| <= t agrees across all logical constellations within tol,
    read off ``pair_moments(code, t_max)`` (so t <= t_max), whose pairs come
    in ascending total degree: one block per degree.  Degree 0 always
    matches."""
    _check_tol(tol)
    degree = pairs.sum(axis=1)
    top = int(degree.max(initial=0))
    starts = np.searchsorted(degree, np.arange(top + 1))
    spreads = np.maximum.reduceat(np.abs(moments - moments[0]).max(axis=0), starts)
    return _match_degree(enumerate(spreads.tolist()), top, tol)


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
    # lower bound on R^D): the monomials x^u y^v with |u| + 2v = e.  Split
    # u = 2a + b with b in {0, 1}^D: for |b| = j of the parity of e, the
    # (a, v) with |a| + v = (e - j)/2 number comb((e - j)/2 + D, D).
    return sum(comb(D, j) * comb((e - j) // 2 + D, D) for j in range(e % 2, min(D, e) + 1, 2))


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
    if t > MAX_BOUNDS_DEGREE:
        raise ValidationError(f"degree {count_text(t)} is above the cap of {MAX_BOUNDS_DEGREE}")
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
    """BoundsReport per logical constellation, from the shells of its own
    points (:func:`constellation.shell_radii`; the origin is a shell).  A
    constellation on one shell is reported against sphere(2n); one on
    several against space(2n) with the conservative flag set
    (shell-restricted polynomial dimensions are not computed), the origin
    an admissible node when a point sits there."""
    degree = code.claimed_degree if t is None else int(t)
    if degree is None:
        raise ValidationError("no degree available: pass t or use a code with claimed_degree")
    reports = []
    for c in code.logicals:
        radii = shell_radii(c.points)
        multi_shell = len(radii) > 1
        rep = size_bounds("space" if multi_shell else "sphere", 2 * code.modes, degree,
                          actual=c.size, excludes_origin=radii[0] > GEOM_TOL)
        reports.append(replace(rep, conservative=multi_shell))
    return reports
