"""Weighted coherent-state constellations and their geometry.

A constellation is a finite set of complex amplitude vectors together with
positive weights summing to one; a code is a family of such constellations
(one per logical state) on a common mode count.  This module holds the data
types, rotations, energy rescaling and the nearest-neighbour resolution
metric.  Every rotation is a passive (linear-optics) unitary, an n x n
complex matrix acting on the amplitudes directly.  The real/complex
embedding, which pairs consecutive real coordinates into one mode, serves
the real polytope vertices, the design check and the distance kernel.  All
types are immutable after construction and all operations are pure
functions.

One routine, ``_symmetry``, decides whether a passive unitary U is a
symmetry of a code, with one relative tolerance rtol: every image U a
within rtol max(1, largest amplitude) of a distinct point (matched in
row blocks, ``_match_points``), every weight within rtol (largest weight)
of its image's, and each codeword inside one codeword.  It serves both
the orbit table (rtol 8 ulps) and the stabilizer X-check
(``stabilizer.verify_xtype``, rtol GEOM_TOL, codeword by codeword).

``code_orbits`` finds a code's largest phase-rotation symmetry
e^{2 pi i/d} (every mode at once) and arranges the points in its orbits,
d points each.  It tries only the orders dividing both the point count
and the number of points on the first point's phase circle, and builds
the orbit table from the powers of that symmetry's permutation.  The closed-
form checks (the moment tables and the KL blocks) and the loss engine sum
every codeword over every orbit representative; a code with no such
rotation has d = 1, one orbit per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

# Geometric equality / orthogonality / weight tolerances.  Chosen to sit far
# above double-precision noise at the dimensions handled here (D <= ~8).
GEOM_TOL = 1e-9
ORTHO_TOL = 1e-10
WEIGHT_TOL = 1e-12
DISTINCT_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_amplitude(coords) -> np.ndarray:
    """Validate and return a single amplitude point as a 1-D complex array."""
    a = np.atleast_1d(np.asarray(coords, dtype=complex))
    if a.ndim != 1 or a.size < 1:
        raise ValidationError("amplitude point must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError("amplitude point has non-finite entries")
    return a


@dataclass(frozen=True)
class WeightedConstellation:
    """Finite set of n-mode amplitude points with normalized positive weights.

    ``points`` has shape (size, modes); ``weights`` has shape (size,), is
    finite, strictly positive and sums to one.  Points must be pairwise
    distinct: their nearest squared distance must exceed DISTINCT_TOL.
    Eight times the largest squared norm must be a finite double: squared
    distances reach 4 times it, and the pair scan's bound on their rounding
    5 times.
    """

    points: np.ndarray
    weights: np.ndarray
    # The nearest squared distance between two points (inf for one point).
    # A constellation built from points scans all pairs for it once; the
    # copies that scaled() and apply_rotation() derive are handed its image
    # instead of scanning again, and still enforce DISTINCT_TOL.
    _nearest: Optional[float] = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValidationError("points must form a (size, modes) array with size, modes >= 1")
        big = float(np.abs(pts.view(float)).max())
        if not np.isfinite(big):
            raise ValidationError("constellation points have non-finite entries")
        # 8 |a|^2 <= 16 n big^2 (a Python float, inf on overflow): only when
        # that bound overflows are the squared norms formed.
        if 16.0 * pts.shape[1] * big * big == np.inf:
            with np.errstate(over="ignore"):
                if not np.isfinite(8.0 * _squared_norms(pts).max()):
                    raise ValidationError(
                        "constellation points are too large: squared distances overflow a double")
        if w.shape != (pts.shape[0],):
            raise ValidationError("weights length must match the number of points")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if np.any(w <= 0):
            raise ValidationError("all weights must be strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights must sum to 1 within {WEIGHT_TOL} (got {float(w.sum())})")
        nearest = np.inf
        if pts.shape[0] > 1:
            nearest = min_squared_distance(pts) if self._nearest is None else self._nearest
            if nearest <= DISTINCT_TOL:
                raise ValidationError("constellation points must be pairwise distinct")
        object.__setattr__(self, "_nearest", float(nearest))
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def modes(self) -> int:
        return self.points.shape[1]

    def scaled(self, factor: float) -> "WeightedConstellation":
        """Uniformly rescale all amplitudes; weights are unchanged."""
        return WeightedConstellation(
            self.points * factor, self.weights, _nearest=factor * factor * self._nearest
        )

    def radii(self) -> np.ndarray:
        """Euclidean norm of each amplitude point."""
        return np.linalg.norm(self.points, axis=1)


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """K weighted constellations sharing a mode count, plus metadata.

    A code's shells are a property of its points (``shell_radii``).
    ``claimed_degree`` is the nominal cubature degree of each logical
    constellation (None if unknown).
    Codes compare and hash by identity.
    """

    name: str
    logicals: tuple
    claimed_degree: Optional[int] = None
    warnings: tuple = ()

    def __post_init__(self):
        logicals = tuple(self.logicals)
        if len(logicals) < 1:
            raise ValidationError("a code needs at least one logical constellation")
        n = logicals[0].modes
        if any(c.modes != n for c in logicals):
            raise ValidationError("all logical constellations must share the mode count")
        object.__setattr__(self, "logicals", logicals)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def modes(self) -> int:
        return self.logicals[0].modes

    @property
    def dim(self) -> int:
        """Number of logical states K."""
        return len(self.logicals)

    def all_points(self) -> np.ndarray:
        """Stacked points of every logical constellation, shape (total, modes)."""
        return np.vstack([c.points for c in self.logicals])

    def codeword_rows(self) -> list:
        """Row slice of :meth:`all_points` holding each logical constellation."""
        ends = np.cumsum([c.size for c in self.logicals])
        return [slice(int(end) - c.size, int(end)) for end, c in zip(ends, self.logicals)]


# ---------------------------------------------------------------------------
# Rotations: passive (linear-optics) unitaries on the n modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rotation:
    """Passive unitary U in U(n) acting on n-mode amplitudes, a -> U a."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError("rotation matrix must be square")
        if not np.isfinite(m).all():
            raise ValidationError("rotation matrix has non-finite entries")
        if np.abs(np.conj(m.T) @ m - np.eye(m.shape[0])).max() > ORTHO_TOL:
            raise ValidationError("rotation matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, modes: int) -> "Rotation":
        return cls(np.eye(modes))

    @classmethod
    def mode_phases(cls, angles: Sequence[float]) -> "Rotation":
        """Per-mode phase rotation alpha_j -> exp(i phi_j) alpha_j."""
        return cls(np.diag(np.exp(1j * np.asarray(angles, dtype=float))))

    @classmethod
    def global_phase(cls, modes: int, angle: float) -> "Rotation":
        """Uniform phase rotation of every mode (isoclinic for n = 2)."""
        return cls.mode_phases([angle] * modes)


# ---------------------------------------------------------------------------
# Embedding and transforms
# ---------------------------------------------------------------------------


def embed_real_to_complex(points) -> np.ndarray:
    """Map real D-vectors to C^{D/2} by pairing consecutive coordinates.

    (x1, ..., xD) -> (x1 + i x2, ..., x_{D-1} + i x_D).  Euclidean norms are
    preserved.  D must be even.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] % 2 != 0:
        raise ValidationError("odd real dimension: the complex embedding needs D even")
    return pts[:, 0::2] + 1j * pts[:, 1::2]


def embed_complex_to_real(points) -> np.ndarray:
    """Inverse of :func:`embed_real_to_complex`: (N, n) complex -> (N, 2n) real."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    out = np.empty((pts.shape[0], 2 * pts.shape[1]))
    out[:, 0::2] = pts.real
    out[:, 1::2] = pts.imag
    return out


def apply_rotation(c: WeightedConstellation, r: Rotation) -> WeightedConstellation:
    """Rotate every point of a constellation; weights are unchanged."""
    if r.modes != c.modes:
        raise ValidationError(f"rotation dimension {r.modes} does not match {c.modes} modes")
    # A unitary keeps every distance (to ORTHO_TOL relative).
    return WeightedConstellation(c.points @ r.matrix.T, c.weights, _nearest=c._nearest)


def rotate_code(code: CodeSpec, r: Rotation) -> CodeSpec:
    """Apply one common rotation to all logical constellations."""
    return replace(code, logicals=tuple(apply_rotation(c, r) for c in code.logicals))


# Distances are formed in blocks of rows of at most this many bytes, so a
# constellation of up to 256 points is one block.
_DISTANCE_BYTES = 1 << 19
_EPS = float(np.finfo(float).eps)


def _pair_distances(cols: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the points a[i] and b[i], summed one real
    coordinate at a time (``cols`` holds the coordinates, one per row):
    every squared distance that a scan reports is formed this way."""
    d2 = np.square(cols[0][a] - cols[0][b])
    for col in cols[1:]:
        d2 += np.square(col[a] - col[b])
    return d2


def _pair_scan(points: np.ndarray):
    """The nearest pairs of ``points``, in blocks of rows: the scan behind
    :func:`min_squared_distance`.

    Yields (a, b, d2) per block: pairs (a[i], b[i]), a != b, with a in the
    block and b at or after its first row, and their squared distances d2
    (``_pair_distances``), among them every pair of the block within
    rounding of its least distance.  Every pair of points lies in some block
    (the distances are exactly symmetric).  Candidates come from the Gram
    form |a|^2 + |b|^2 - 2 Re <a, b>, one product of the real coordinates
    extended by |a|^2 and 1, with no N x N x modes temporary and no block
    over ``_DISTANCE_BYTES``.  For m real coordinates and M the largest
    |a|^2 that form is off by at most (6 m + 8) eps M (the norms' rounding
    and the product's), and a pair's sum by (m + 2) eps of itself, so the
    block's nearest pair is within (12 m + 16) eps M + 2 (m + 2) eps least
    of the least form; more than that is kept.
    """
    x = np.ascontiguousarray(points).view(float)
    size, m = x.shape
    cols = x.T.copy()
    norms = (x * x).sum(axis=1)
    # Rows [a, |a|^2, 1] against columns [-2 b, 1, |b|^2]: -2 is exact.
    left = np.hstack([x, norms[:, None], np.ones((size, 1))])
    right = np.hstack([-2.0 * x, np.ones((size, 1)), norms[:, None]])
    rounding = 16.0 * (m + 3) * _EPS
    big = float(norms.max())
    step = max(1, _DISTANCE_BYTES // (x.itemsize * size))
    # Every block's form goes into one buffer: a fresh block of this size
    # is mapped and faulted in anew, which took longer than the product.
    buf = np.empty(min(step, size) * size)
    for lo in range(0, size, step):
        rows = np.arange(lo, min(lo + step, size))
        form = buf[:len(rows) * (size - lo)].reshape(len(rows), size - lo)
        np.matmul(left[rows], right[lo:].T, out=form)
        form[rows - lo, rows - lo] = np.inf
        least = float(form.min())
        if least == np.inf:  # a last row alone, with no pair
            continue
        # (A flat nonzero is many times faster than a 2-D one.)
        i, j = np.divmod(np.flatnonzero(form <= least + rounding * (big + abs(least))),
                         size - lo)
        a, b = rows[i], lo + j
        yield a, b, _pair_distances(cols, a, b)


def min_squared_distance(points: np.ndarray) -> float:
    """Minimum squared Euclidean distance over all index pairs i < j."""
    return min((float(d2.min()) for _, _, d2 in _pair_scan(points)), default=np.inf)


def _squared_norms(z: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each point (along the last axis)."""
    x = np.ascontiguousarray(z).view(float)
    return (x * x).sum(axis=-1)


def _match_points(points: np.ndarray, images: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """The permutation perm with images[i] within Euclidean distance tol of
    points[perm[i]] for every i, or None when the images are not the points.

    Each image's nearest point comes from the Gram form |b|^2 - 2 Re <a, b>
    (a real Gram of the real coordinates), with no N x N x modes difference
    tensor, in blocks of images of at most ``_DISTANCE_BYTES``.  That form
    cancels small distances away, so the matched distances are then formed
    directly.
    """
    tol2 = tol * tol
    if _squared_norms(points - images[0]).min() > tol2:  # cheap test on one image
        return None
    real_pts = np.ascontiguousarray(points).view(float)
    real_images = np.ascontiguousarray(images).view(float)
    norms = (real_pts * real_pts).sum(axis=1)
    minus_twice = -2.0 * real_pts  # exact, so each Gram entry is -2 <a, b> exactly
    step = max(1, _DISTANCE_BYTES // (real_pts.itemsize * len(points)))
    perm = np.empty(len(images), dtype=int)
    for lo in range(0, len(images), step):
        dist = real_images[lo:lo + step] @ minus_twice.T
        dist += norms
        perm[lo:lo + step] = dist.argmin(axis=1)
    if np.bincount(perm).max() > 1 or _squared_norms(images - points[perm]).max() > tol2:
        return None
    return perm


def _symmetry(pts: np.ndarray, w: np.ndarray, owner: np.ndarray, images: np.ndarray,
              rtol: float) -> Optional[tuple]:
    """(perm, moves) if U, with ``images`` = U ``pts``, is a symmetry: image
    i within rtol max(1, largest amplitude) of the distinct point perm[i],
    each weight ``w`` within rtol max(w) of its image's, and each codeword
    k of ``owner`` (ascending) inside codeword moves[k].  Else None."""
    perm = _match_points(pts, images, rtol * max(1.0, float(np.abs(pts).max())))
    if perm is None or np.abs(w[perm] - w).max() > rtol * w.max():
        return None
    # perm is a bijection, so codewords that land inside codewords are permuted.
    image = owner[perm]
    moves = image[np.searchsorted(owner, np.arange(owner[-1] + 1))]
    return None if np.any(image != moves[owner]) else (perm, moves)


# Points match under a phase rotation to this many ulps (``_symmetry``'s
# rtol): the size of the rounding in the catalog's coordinates (3.2 ulps at
# most, on qsc12).  The loss engine's sector Grams are those of the rotated
# first points, so a looser match would evaluate a slightly different code,
# a difference the inverse Gram ratio amplifies like roundoff in the
# inputs; a missed match only costs speed.
_ORBIT_ULPS = 8.0
# The largest rotation order tried: it keeps a block of the loss engine's
# sector series within L log 2 <= 700 (see klcheck._sector_grams).
_MAX_ORDER = 1009


@dataclass(frozen=True, eq=False)
class Orbits:
    """The largest phase rotation e^{2 pi i/d} of every mode at once that
    is a symmetry of a code (``_symmetry``), with the points arranged in
    its orbits.

    ``points`` and ``weights`` are the code's stacked points
    (``code.all_points()``) and weights, and ``owner`` each point's
    codeword.  ``rows[o, t]`` is the row of e^{2 pi i t/d} r_o in
    ``points``, where the representative r_o (``reps[o]``) is the orbit's
    first point in that order; orbits are ordered by it.  An orbit's DFT
    (``spectrum``) is zero for the codewords it does not visit, so sums
    run over every orbit for every codeword.  A code with no such rotation
    has d = 1: one orbit per point.  ``derived`` keeps data that a user of
    the table builds from it once per code (see klcheck._orbits), by name.
    """

    d: int
    rows: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    owner: np.ndarray
    derived: dict = field(default_factory=dict, repr=False)

    @cached_property
    def reps(self) -> np.ndarray:
        return _freeze(self.points[self.rows[:, 0]])

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """[c, o, k] = sum_t e^{2 pi i c t/d} values[a] [owner(a) = k] for
        the points a = rows[o, t]: a DFT along each orbit, per codeword."""
        coef = values[self.rows][..., None] * (self.owner[self.rows][..., None]
                                               == np.arange(self.owner[-1] + 1))
        if self.d > 1:  # (the DFT of one term is that term)
            coef = np.fft.ifft(coef, axis=1, norm="forward")
        return coef.transpose(1, 0, 2)


def _orbit_rows(pts: np.ndarray, w: np.ndarray, owner: np.ndarray, d: int,
                tol: float) -> Optional[np.ndarray]:
    """The orbit table (see Orbits.rows) of e^{2 pi i/d} if it is a ``_symmetry``."""
    found = _symmetry(pts, w, owner, np.exp(2j * np.pi / d) * pts, _ORBIT_ULPS * _EPS)
    if found is None:
        return None
    # steps[t] = perm^t.  Every orbit has d points: perm^d is the identity and
    # no earlier power fixes a point (every rotation fixes the origin).  An
    # orbit's first point is the least index that reaches it.
    steps = np.empty((d, len(pts)), dtype=int)
    steps[0] = np.arange(len(pts))
    for t in range(1, d):
        steps[t] = found[0][steps[t - 1]]
    if np.any(found[0][steps[-1]] != steps[0]) or np.any(steps[1:] == steps[0]):
        return None
    rows = steps[:, steps.min(axis=0) == steps[0]].T
    # Steps matched within tol each can drift by d tol along an orbit: check
    # the rotated first points, which the loss engine's sector Grams use.
    turns = np.exp(2j * np.pi * np.arange(d) / d)[None, :, None]
    drift = _squared_norms(turns * pts[rows[:, :1]] - pts[rows]).max()
    return rows if drift <= tol * tol else None


# Codes hash by identity, so a table is found again for the same CodeSpec
# object only.
@lru_cache(maxsize=8)
def code_orbits(code: CodeSpec) -> Orbits:
    """The orbit table of a code's largest phase-rotation symmetry.

    Every orbit has d points, so d divides the point count N.  The rotation
    maps the phase circle {e^{i phi} a_0} of the first point onto itself,
    so d also divides the number of points on that circle (within the
    match tolerance): only the orders dividing both are tried, largest
    first.
    """
    pts = code.all_points()
    w = np.concatenate([c.weights for c in code.logicals])
    owner = np.repeat(np.arange(code.dim), [c.size for c in code.logicals])
    N = len(pts)
    tol = _ORBIT_ULPS * _EPS * max(1.0, float(np.abs(pts).max()))
    along = pts @ np.conj(pts[0])
    # A subnormal overlap (whose reciprocal overflows in the complex
    # division) counts as none: its point is off the circle unless it is
    # within tol of the origin.
    length = np.abs(along)
    phase = along / np.where(length < np.finfo(float).tiny, 1.0, length)
    circle = int((_squared_norms(pts - phase[:, None] * pts[0]) <= tol * tol).sum())
    for d in range(min(circle, _MAX_ORDER), 1, -1):
        if N % d == 0 and circle % d == 0:
            rows = _orbit_rows(pts, w, owner, d, tol)
            if rows is not None:
                return Orbits(d=d, rows=rows, points=pts, weights=w, owner=owner)
    return Orbits(d=1, rows=np.arange(N)[:, None], points=pts, weights=w, owner=owner)


def resolution(code: CodeSpec) -> float:
    """Global nearest-neighbour squared distance over the union of all
    logical constellations (the code's resolution), from every pair."""
    pts = code.all_points()
    if pts.shape[0] < 2:
        raise ValidationError("resolution needs at least 2 points")
    nearest = min_squared_distance(pts)
    if nearest <= DISTINCT_TOL and all(c.size == 1 for c in code.logicals):
        # The points of one constellation are farther apart than
        # DISTINCT_TOL, so only codewords of one point each can coincide.
        a, b = np.triu_indices(len(pts), 1)
        if _pair_distances(pts.view(float).T, a, b).max() <= DISTINCT_TOL:
            raise ValidationError("resolution needs at least 2 distinct points")
    return nearest


def shell_radii(points: np.ndarray) -> np.ndarray:
    """The shells the points lie on, as ascending radii: sorted norms more
    than GEOM_TOL * max(1, r) above the norm r below them start a new shell,
    whose radius is its least norm.  A first radius of at most GEOM_TOL is a
    point at the origin."""
    norms = np.sort(np.linalg.norm(points, axis=1))
    rises = np.diff(norms) > GEOM_TOL * np.maximum(1.0, norms[:-1])
    return norms[np.concatenate([[True], rises])]


def mean_photon_number(c: WeightedConstellation) -> float:
    """Weighted mean of ||alpha||^2 (the constellation's effective energy)."""
    return float(c.weights @ (np.abs(c.points) ** 2).sum(axis=1))


def scale_code(code: CodeSpec, factor: float) -> CodeSpec:
    """Rescale every amplitude by ``factor``; every other field is kept."""
    if factor <= 0:
        raise ValidationError("scale factor must be positive")
    return replace(code, logicals=tuple(c.scaled(factor) for c in code.logicals))


def normalize_energy(code: CodeSpec, target: float) -> tuple:
    """Rescale the code so every logical constellation has mean photon
    number ``target``.  Returns (scaled code, scale factor lambda).

    Fails if the logical constellations disagree on the mean photon number
    by more than GEOM_TOL * max(1, largest) (they could not then be
    normalized simultaneously) or contain only zero-amplitude points.
    """
    if target <= 0:
        raise ValidationError("target mean photon number must be positive")
    nbars = [mean_photon_number(c) for c in code.logicals]
    if max(nbars) <= 0:
        raise ValidationError("cannot normalize an all-zero constellation")
    if max(nbars) - min(nbars) > GEOM_TOL * max(1.0, max(nbars)):
        raise ValidationError(
            f"logical constellations have unequal mean photon numbers: {nbars}"
        )
    lam = float(np.sqrt(target / nbars[0]))
    return scale_code(code, lam), lam
