"""Weighted coherent-state constellations and their geometry.

A constellation is a finite set of complex amplitude vectors together with
positive weights summing to one; a code is a family of such constellations
(one per logical state) on a common mode count.  This module holds the data
types, the real/complex embedding, orthogonal rotations, energy rescaling
and the nearest-neighbour resolution metric.  All types are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import copysign
from typing import Callable, Iterable, Optional, Sequence

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
    strictly positive and sums to one.  Points must be pairwise distinct:
    their nearest squared distance must exceed DISTINCT_TOL.
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
        if not np.all(np.isfinite(pts.view(float))):
            raise ValidationError("constellation points have non-finite entries")
        if w.shape != (pts.shape[0],):
            raise ValidationError("weights length must match the number of points")
        if np.any(w <= 0):
            raise ValidationError("all weights must be strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights must sum to 1 within {WEIGHT_TOL} (got {w.sum()!r})")
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

    ``shells`` lists the nominal shell radii; when non-empty, every point's
    norm must match one of them within GEOM_TOL.  ``claimed_degree`` is the
    nominal cubature degree of each logical constellation (None if unknown).
    Codes compare and hash by identity.
    """

    name: str
    logicals: tuple
    shells: tuple = ()
    claimed_degree: Optional[int] = None
    warnings: tuple = ()

    def __post_init__(self):
        logicals = tuple(self.logicals)
        if len(logicals) < 1:
            raise ValidationError("a code needs at least one logical constellation")
        n = logicals[0].modes
        if any(c.modes != n for c in logicals):
            raise ValidationError("all logical constellations must share the mode count")
        shells = tuple(float(r) for r in self.shells)
        if any(r < 0 for r in shells):
            raise ValidationError("shell radii must be nonnegative")
        if shells:
            for k, c in enumerate(logicals):
                norms = c.radii()
                dist = np.abs(norms[:, None] - np.asarray(shells)[None, :]).min(axis=1)
                if dist.max() > GEOM_TOL:
                    i = int(dist.argmax())
                    raise ValidationError(
                        f"point {i} of logical {k} has norm {norms[i]!r} matching no declared shell"
                    )
        object.__setattr__(self, "logicals", logicals)
        object.__setattr__(self, "shells", shells)
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
# Rotations on the real embedding of amplitude space
# ---------------------------------------------------------------------------

# The complex structure J on interleaved real coordinates (x1, y1, x2, y2, ...)
# is block-diagonal with 2x2 blocks [[0, -1], [1, 0]].  A real orthogonal
# matrix commuting with J is the real picture of a passive U(n) unitary.


def _complex_structure(dim: int) -> np.ndarray:
    j = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        j[i, i + 1] = -1.0
        j[i + 1, i] = 1.0
    return j


@dataclass(frozen=True)
class Rotation:
    """Real orthogonal D x D matrix acting on the real embedding (D = 2n)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("rotation matrix must be square")
        if m.shape[0] % 2 != 0:
            raise ValidationError("rotation must act on an even real dimension")
        if np.abs(m.T @ m - np.eye(m.shape[0])).max() > ORTHO_TOL:
            raise ValidationError("rotation matrix is not orthogonal within tolerance")
        det = np.linalg.det(m)
        if min(abs(det - 1.0), abs(det + 1.0)) > ORTHO_TOL:
            raise ValidationError("rotation determinant must be +/-1")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def modes(self) -> int:
        return self.dim // 2

    @classmethod
    def identity(cls, modes: int) -> "Rotation":
        return cls(np.eye(2 * modes))

    @classmethod
    def from_complex_unitary(cls, u) -> "Rotation":
        """Real 2n x 2n picture of a passive unitary u in U(n)."""
        u = np.atleast_2d(np.asarray(u, dtype=complex))
        n = u.shape[0]
        m = np.zeros((2 * n, 2 * n))
        m[0::2, 0::2] = u.real
        m[0::2, 1::2] = -u.imag
        m[1::2, 0::2] = u.imag
        m[1::2, 1::2] = u.real
        return cls(m)

    @classmethod
    def mode_phases(cls, angles: Sequence[float]) -> "Rotation":
        """Per-mode phase rotation alpha_j -> exp(i phi_j) alpha_j."""
        return cls.from_complex_unitary(np.diag(np.exp(1j * np.asarray(angles, dtype=float))))

    @classmethod
    def global_phase(cls, modes: int, angle: float) -> "Rotation":
        """Uniform phase rotation of every mode (isoclinic for n = 2)."""
        return cls.mode_phases([angle] * modes)

    def complex_unitary(self) -> Optional[np.ndarray]:
        """The n x n unitary this rotation represents, or None if it is not
        complex-linear (i.e. not a passive optical transformation)."""
        m = self.matrix
        j = _complex_structure(self.dim)
        if np.abs(m @ j - j @ m).max() > ORTHO_TOL:
            return None
        return m[0::2, 0::2] + 1j * m[1::2, 0::2]


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
    if r.dim != 2 * c.modes:
        raise ValidationError(f"rotation dimension {r.dim} does not match 2n = {2 * c.modes}")
    rotated = embed_real_to_complex(embed_complex_to_real(c.points) @ r.matrix.T)
    # An orthogonal matrix keeps every distance (to ORTHO_TOL relative).
    return WeightedConstellation(rotated, c.weights, _nearest=c._nearest)


def rotate_code(code: CodeSpec, r: Rotation) -> CodeSpec:
    """Apply one common rotation to all logical constellations."""
    return CodeSpec(
        name=code.name,
        logicals=tuple(apply_rotation(c, r) for c in code.logicals),
        shells=code.shells,
        claimed_degree=code.claimed_degree,
        warnings=code.warnings,
    )


# Distances are formed in blocks of rows of at most this many bytes, so a
# constellation of up to 256 points is one block.
_DISTANCE_BYTES = 1 << 19


def _squared_distance_range(points: np.ndarray) -> tuple:
    """(min, max) squared Euclidean distance over index pairs i != j.

    Each block of rows i gets its distances to the points j >= its first
    row, which covers every pair once the blocks are done (the distances
    are exactly symmetric).  They are accumulated one real coordinate at a
    time, so no N x N x modes temporary is formed and no block exceeds
    ``_DISTANCE_BYTES``; the diagonal is masked, not indexed away.
    """
    cols = embed_complex_to_real(points).T.copy()
    size = cols.shape[1]
    step = max(1, _DISTANCE_BYTES // (cols.itemsize * size))
    nearest, largest = np.inf, 0.0
    buffers = np.empty((2, min(step, size) * size))
    for lo in range(0, size, step):
        rows = min(step, size - lo)
        d2, diff = (b[:rows * (size - lo)].reshape(rows, size - lo) for b in buffers)
        d2.fill(0.0)
        for col in cols[:, lo:]:
            np.subtract.outer(col[:rows], col, out=diff)
            d2 += np.square(diff, out=diff)
        largest = max(largest, float(d2.max()))  # the zero diagonal never exceeds a pair
        np.fill_diagonal(d2, np.inf)
        nearest = min(nearest, float(d2.min()))
    return nearest, largest


def min_squared_distance(points: np.ndarray) -> float:
    """Minimum squared Euclidean distance over all index pairs i < j."""
    return _squared_distance_range(points)[0]


def _match_points(points: np.ndarray, images: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """The permutation perm with images[i] within Euclidean distance tol of
    points[perm[i]] for every i, or None when the images are not the points.

    Each image's nearest point comes from the Gram form |b|^2 - 2 Re <a, b>,
    with no N x N x modes difference tensor.  That form cancels small
    distances away, so the matched distances are then formed directly.
    """
    if np.linalg.norm(points - images[0], axis=1).min() > tol:  # cheap test on one image
        return None
    dist = (np.abs(points) ** 2).sum(axis=1)[None, :] - 2.0 * (np.conj(images) @ points.T).real
    perm = dist.argmin(axis=1)
    if (np.bincount(perm).max() > 1
            or np.linalg.norm(images - points[perm], axis=1).max() > tol):
        return None
    return perm


def resolution(code: CodeSpec) -> float:
    """Global nearest-neighbour squared distance over the union of all
    logical constellations (the code's resolution)."""
    pts = code.all_points()
    if pts.shape[0] < 2:
        raise ValidationError("resolution needs at least 2 points")
    nearest, farthest = _squared_distance_range(pts)
    if farthest <= DISTINCT_TOL:
        raise ValidationError("resolution needs at least 2 distinct points")
    return nearest


def mean_photon_number(c: WeightedConstellation) -> float:
    """Weighted mean of ||alpha||^2 (the constellation's effective energy)."""
    return float(c.weights @ (np.abs(c.points) ** 2).sum(axis=1))


def scale_code(code: CodeSpec, factor: float) -> CodeSpec:
    """Rescale every amplitude (and the declared shells) by ``factor``."""
    if factor <= 0:
        raise ValidationError("scale factor must be positive")
    return CodeSpec(
        name=code.name,
        logicals=tuple(c.scaled(factor) for c in code.logicals),
        shells=tuple(r * factor for r in code.shells),
        claimed_degree=code.claimed_degree,
        warnings=code.warnings,
    )


def normalize_energy(code: CodeSpec, target: float) -> tuple:
    """Rescale the code so every logical constellation has mean photon
    number ``target``.  Returns (scaled code, scale factor lambda).

    Fails if the logical constellations disagree on the mean photon number
    (they could not then be normalized simultaneously) or contain only
    zero-amplitude points.
    """
    if target <= 0:
        raise ValidationError("target mean photon number must be positive")
    nbars = [mean_photon_number(c) for c in code.logicals]
    if max(nbars) <= 0:
        raise ValidationError("cannot normalize an all-zero constellation")
    if max(nbars) - min(nbars) > GEOM_TOL:
        raise ValidationError(
            f"logical constellations have unequal mean photon numbers: {nbars}"
        )
    lam = float(np.sqrt(target / nbars[0]))
    return scale_code(code, lam), lam


# ---------------------------------------------------------------------------
# Rotation families and codeword-rotation optimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationFamily:
    """Parameterized family of rotations over a bounded box.

    ``build`` maps a parameter vector (length = len(lower)) to a Rotation.
    """

    lower: np.ndarray
    upper: np.ndarray
    build: Callable
    name: str = ""

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 1:
            raise ValidationError("rotation family needs matching 1-D bounds")
        if np.any(hi < lo):
            raise ValidationError("rotation family box has upper < lower")
        object.__setattr__(self, "lower", _freeze(lo))
        object.__setattr__(self, "upper", _freeze(hi))


def plane_rotation_family(lo: float = 0.0, hi: float = 2 * np.pi) -> RotationFamily:
    """Single-mode phase rotations alpha -> exp(i theta) alpha."""
    return RotationFamily(
        lower=np.array([lo]),
        upper=np.array([hi]),
        build=lambda p: Rotation.global_phase(1, float(p[0])),
        name="plane",
    )


def global_phase_family(modes: int, lo: float = 0.0, hi: float = np.pi / 2) -> RotationFamily:
    """Uniform-phase (isoclinic) rotations of all modes."""
    return RotationFamily(
        lower=np.array([lo]),
        upper=np.array([hi]),
        build=lambda p: Rotation.global_phase(modes, float(p[0])),
        name="global-phase",
    )


def mode_phase_family(modes: int, lo: float = 0.0, hi: float = 2 * np.pi) -> RotationFamily:
    """Independent per-mode phase rotations (an n-parameter family)."""
    return RotationFamily(
        lower=np.full(modes, lo),
        upper=np.full(modes, hi),
        build=lambda p: Rotation.mode_phases(np.asarray(p, dtype=float)),
        name="mode-phases",
    )


def _pair_resolution(base: np.ndarray, rotated: np.ndarray) -> float:
    # Multiset resolution of the two-codeword configuration: coincident
    # cross-codeword points (a degenerate code) score 0.
    return min_squared_distance(np.vstack([base, rotated]))


# Brent's golden-section fraction, and the shortest bracket the search
# resolves relative to 1 + |x|: its smallest step, a third of that, stays a
# few units in the last place, so every probe is a new float.
_GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0
_XTOL_FLOOR = 9.0 * np.finfo(float).eps


def _rank(value: Optional[float]) -> float:
    return -np.inf if value is None else value


def _parabola_step(x: float, fx: float, w: float, fw: float, v: float, fv: float) -> float:
    """Offset from x to the vertex of the parabola through three points
    (NaN when they are collinear or two of them coincide)."""
    r = (x - w) * (fx - fv)
    q = (x - v) * (fx - fw)
    denom = 2.0 * (q - r)
    return ((x - w) * r - (x - v) * q) / denom if denom != 0.0 else np.nan


def brent_max(
    f: Callable[[float], Optional[float]],
    a: float,
    b: float,
    tol: float,
    max_iter: int,
    seeds: Sequence[tuple] = (),
) -> tuple:
    """Brent's method for a maximum of f on [a, b] (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 5): parabolic
    interpolation through the three best points, with a golden-section step
    wherever the parabola is not trusted.

    seeds are (x, f(x)) pairs already evaluated in [a, b]; without them the
    search starts from one golden-section point.  f may return None for a
    point it cannot evaluate: None ranks below every value, and no parabola
    is fitted through it.  The best point moves only on a strict
    improvement.  The search stops once the bracket around the best point
    is shorter than tol (or than a few units in the last place of x) or
    after max_iter evaluations of f; no point is evaluated twice.  Returns
    the best (x, f(x)) over the seeds and every point evaluated, the
    earliest one on ties.
    """
    points = list(seeds)
    if not points:
        x0 = a + _GOLDEN * (b - a)
        points.append((x0, f(x0)))
    evals = len(points) - len(seeds)
    # x is the best point, w the second best, v the third (repeating the
    # last one when fewer are known).
    ranked = sorted(points, key=lambda t: -_rank(t[1]))
    (x, fx), (w, fw), (v, fv) = (ranked + ranked[-1:] * 2)[:3]
    d = e = b - a  # the last two steps: a full bracket lets a first parabola through
    while evals < max_iter:
        t = max(tol, _XTOL_FLOOR * (1.0 + abs(x)))
        if b - a < t:
            break
        step_min, mid = t / 3.0, 0.5 * (a + b)
        step = np.nan
        if abs(e) > step_min and None not in (fx, fw, fv):
            step = _parabola_step(x, fx, w, fw, v, fv)
        if abs(step) < 0.5 * abs(e) and a < x + step < b:
            e, d = d, step
            if min(x + d - a, b - x - d) < 2.0 * step_min:
                d = copysign(step_min, mid - x)
        else:
            e = (a if x >= mid else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= step_min else copysign(step_min, d))
        fu = f(u)
        evals += 1
        if _rank(fu) > _rank(fx):
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if _rank(fu) >= _rank(fw) or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif _rank(fu) >= _rank(fv) or v in (x, w):
                v, fv = u, fu
    return x, fx


def grid_brent_max(
    f: Callable[[float], Optional[float]],
    xs: Sequence[float],
    values: Sequence[Optional[float]],
    tol: float,
    max_iter: int,
) -> tuple:
    """Refine a grid scan: values[i] = f(xs[i]) on an ascending grid.

    Brent's method (brent_max, whose None ranking applies) runs between the
    neighbours of the best grid point, seeded with that point and the two
    neighbours, so no grid point is evaluated again.  Returns the best
    (x, f(x)) found; the grid point wins ties.
    """
    i = max(range(len(xs)), key=lambda k: _rank(values[k]))
    near = [k for k in (i, i - 1, i + 1) if 0 <= k < len(xs)]
    return brent_max(
        f, xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)], tol, max_iter,
        seeds=[(xs[k], values[k]) for k in near],
    )


def optimize_codeword_rotation(
    code: CodeSpec, family: RotationFamily, steps: int = 200
) -> tuple:
    """Search a rotation family for the member maximizing the resolution of
    the two-codeword code [C0, R(C0)] built from the first logical.

    Deterministic: a uniform grid scan over the family box followed by
    coordinate-wise Brent refinement around the best grid point.
    Returns (best rotation, achieved resolution).
    """
    if code.dim != 2:
        raise ValidationError("rotation optimization is defined for K = 2 codes")
    if steps < 1:
        raise ValidationError("rotation search needs at least one step")
    base = code.logicals[0]
    lo, hi = family.lower, family.upper
    d = lo.size

    def objective(params: np.ndarray) -> float:
        rot = family.build(params)
        rotated = apply_rotation(base, rot)
        return _pair_resolution(base.points, rotated.points)

    # Coarse deterministic grid.
    per_dim = max(2, int(round(steps ** (1.0 / d))))
    axes = [np.linspace(lo[i], hi[i], per_dim) for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    values = np.array([objective(c) for c in candidates])
    best = candidates[int(values.argmax())].copy()
    best_val = float(values.max())

    # Brent refinement, one coordinate at a time.
    for _ in range(3):
        for i in range(d):
            span = (hi[i] - lo[i]) / max(per_dim - 1, 1)
            if span == 0:
                continue

            def along(x: float) -> float:
                p = best.copy()
                p[i] = x
                return objective(p)

            best[i], best_val = brent_max(
                along, max(lo[i], best[i] - span), min(hi[i], best[i] + span), tol=0.0,
                max_iter=60, seeds=[(best[i], best_val)],
            )

    return family.build(best), best_val
