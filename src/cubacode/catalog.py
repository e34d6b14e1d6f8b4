"""Catalog of coherent-state code constructions.

Every entry is generated from its parameters (polygon order, shell count,
radii, dimension, radius ratio) rather than hard-coded point lists, so the
constructions extend beyond the specific instances used in the tests.

Planar (single-mode) codes place regular m-gons on one or more concentric
circles; shell s carries points at angles (2j + s) * pi / m and a per-shell
weight from an alternating interpolation rule in the squared radii.  The
four-dimensional codes are built from the cross-polytope (16-cell), the
hypercube (8-cell) and their union (24-cell), embedded into two modes by
pairing real coordinates.

Every phase-interleaved code is built by one path, ``_interleaved``.  A
builder checks its parameters and lists its base constellation as parts,
each a point array with one weight per point; the path checks K and the
size, normalizes the weights and makes codeword k the base times the
uniform phase exp(2*pi*i*k/(K*m_sym)), where the base is invariant under
the phase 2*pi/m_sym.  Planar m-gon codes have m_sym = m; the polytope
codes have m_sym = 4 (the symmetry angle pi/2, split across K codewords),
except the D = 2 cube-orthoplex union, a regular octagon, with m_sym = 8.
No builder records shell radii: a code's shells come from its points
(``constellation.shell_radii``).

``cube_orthoplex`` and ``twoshell_8_16`` are one family: the D-cube at
radius r_c and the D-orthoplex at radius r_o, with per-point weights in the
ratio w_o / w_c = 2^D r_c^4 / (D^2 r_o^4).  The ratio makes the degree-4
moments isotropic: with cube vertices (+-1, ..., +-1) r_c / sqrt(D), the
condition sum x_1^4 = 3 sum x_1^2 x_2^2 reads
2^D w_c r_c^4 / D^2 + 2 w_o r_o^4 = 3 * 2^D w_c r_c^4 / D^2.
qsc24 (cube_orthoplex at D = 4, the uniform 24-cell) is the family's
equal-radius member and qcc24 (twoshell_8_16 at 1:2) its 1:2 member.

A catalog code has at most MAX_POINTS points over all its codewords, and
a larger request is rejected before its points are built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .constellation import (
    CodeSpec,
    Rotation,
    WeightedConstellation,
    apply_rotation,
    embed_real_to_complex,
    shell_radii,
)
from .errors import ValidationError


def regular_polygon(m: int, radius: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Vertices of a regular m-gon as complex numbers, shape (m, 1)."""
    angles = offset + 2.0 * np.pi * np.arange(m) / m
    return (radius * np.exp(1j * angles)).reshape(m, 1)


def hypercube_vertices(D: int) -> np.ndarray:
    """All sign patterns (+-1, ..., +-1)/sqrt(D): 2^D unit vectors."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=D)))
    return signs / np.sqrt(D)


def orthoplex_vertices(D: int) -> np.ndarray:
    """Cross-polytope vertices +-e_i: 2D unit vectors."""
    eye = np.eye(D)
    return np.vstack([eye, -eye])


def halfcube_vertices(D: int, parity: int) -> np.ndarray:
    """Hypercube vertices with an even (0) or odd (1) number of minus signs."""
    cube = hypercube_vertices(D)
    return cube[(cube < 0).sum(axis=1) % 2 == parity]


def cell24_vertices() -> np.ndarray:
    """Unit 24-cell: the 16-cell vertices joined with the 8-cell vertices."""
    return np.vstack([orthoplex_vertices(4), hypercube_vertices(4)])


# The most points, over all its codewords, that a catalog code may have.  A
# larger request is rejected before any array is built.  The largest code a
# test, README command, script or benchmark workload builds is
# cube_orthoplex --D 10 (2 x 1044 points).
MAX_POINTS = 2**16


def _cap_error(what: str, points) -> ValidationError:
    return ValidationError(
        f"{what} has {points} points, more than the catalog's cap of {MAX_POINTS}")


def _uniform(points: np.ndarray) -> WeightedConstellation:
    n = points.shape[0]
    return WeightedConstellation(points, np.full(n, 1.0 / n))


def _power(x: float, k: int) -> float:
    """x ** k, inf where that overflows a double (Python's ** raises)."""
    try:
        return x ** k
    except OverflowError:
        return np.inf


def _interleaved(name: str, parts: Sequence[tuple], K: int, m_sym: int, degree: int,
                 warnings: tuple = ()) -> CodeSpec:
    """K codewords: the base constellation, the union of ``parts`` (pairs of
    points and one weight per point, normalized here) invariant under the
    phase 2*pi/m_sym, times the uniform phase 2*pi*k/(K*m_sym)."""
    K = int(K)
    if K < 1:
        raise ValidationError(f"{name} needs K >= 1")
    total = K * sum(p.shape[0] for p, _ in parts)
    if total > MAX_POINTS:
        raise _cap_error(name, total)
    points = np.vstack([p for p, _ in parts])
    weights = np.concatenate([np.full(p.shape[0], w) for p, w in parts])
    # A weight rule whose terms leave the range of a double gives weights
    # of inf, nan or 0 here.
    with np.errstate(all="ignore"):
        weights = weights / weights.sum()
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise ValidationError(f"the weights of {name} leave the range of a double")
    base = WeightedConstellation(points, weights)
    logicals = tuple(
        apply_rotation(base, Rotation.global_phase(base.modes, 2.0 * np.pi * k / (K * m_sym)))
        for k in range(K)
    )
    return CodeSpec(name=name, logicals=logicals, claimed_degree=degree, warnings=warnings)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def cat_code(m: int, K: int = 2, radius: float = 1.0) -> CodeSpec:
    """m points per codeword on one circle, uniform weights; K codewords
    interleaved by 2*pi/(K*m)."""
    m, K = int(m), int(K)
    if m < 2:
        raise ValidationError("cat code needs m >= 2 points per codeword")
    if radius <= 0:
        raise ValidationError("cat code radius must be positive")
    name = f"cat(m={m},K={K})"
    if m > MAX_POINTS:
        raise _cap_error(f"a codeword of {name}", m)
    return _interleaved(name, [(regular_polygon(m, radius), 1.0)], K, m, m - 1)


def polygon_shell_weights(m: int, radii: Sequence[float]) -> np.ndarray:
    """Per-shell weights (normalized per point) for p concentric m-gons.

    Shell 1 gets 1/r_1^m; shell s >= 2 gets
    (-1)^s / r_s^m * prod_{2 <= l <= p, l != s} (r_1^2 - r_l^2)/(r_s^2 - r_l^2),
    all divided by the total mass m * sum_s w_s.
    """
    r = np.asarray(radii, dtype=float)
    p = r.size
    w = np.empty(p)
    with np.errstate(all="ignore"):
        w[0] = 1.0 / r[0] ** m
        for s in range(2, p + 1):
            prod = 1.0
            for l in range(2, p + 1):
                if l == s:
                    continue
                prod *= (r[0] ** 2 - r[l - 1] ** 2) / (r[s - 1] ** 2 - r[l - 1] ** 2)
            w[s - 1] = (-1.0) ** s / r[s - 1] ** m * prod
        if np.any(w <= 0):
            raise ValidationError(f"shell weight rule produced non-positive weights {w.tolist()}")
        # Terms out of the range of a double give inf or nan weights, which
        # _interleaved rejects.
        return w / (m * w.sum())


def polygon_shell_code(m: int, p: int, radii: Sequence[float], K: int = 2) -> CodeSpec:
    """p concentric regular m-gons, shell s at angles (2j+s)*pi/m, with the
    interpolatory shell weights; K codewords interleaved by 2*pi/(K*m)."""
    m, p = int(m), int(p)
    r = tuple(float(x) for x in radii)
    if m < 2:
        raise ValidationError("polygon shells need m >= 2 points per shell")
    if p < 1 or len(r) != p:
        raise ValidationError("polygon shells need p >= 1 radii, one per shell")
    if any(x <= 0 for x in r) or any(b <= a for a, b in zip(r, r[1:])):
        raise ValidationError("shell radii must be positive and strictly increasing")
    name = f"polygon_shells(m={m},p={p})"
    if m * p > MAX_POINTS:
        raise _cap_error(f"a codeword of {name}", m * p)
    t = m + 2 * p - 3
    warnings = ()
    if p > (t + 5) // 4:
        warnings = (
            f"shell count p={p} exceeds the tight-design limit {(t + 5) // 4} for degree {t}",
        )
    shell_w = polygon_shell_weights(m, r)
    parts = [(regular_polygon(m, r[s - 1], offset=s * np.pi / m), shell_w[s - 1])
             for s in range(1, p + 1)]
    return _interleaved(name, parts, K, m, t, warnings)


def _check_even_dim(D: int, cube: bool, orth: bool) -> int:
    """An even D >= 2 at which a codeword of the D-cube's 2^D vertices (if
    ``cube``) and the D-orthoplex's 2D (if ``orth``) fits under MAX_POINTS.
    2^D is formed only below the cap's bit length, so a huge D fails at once."""
    D = int(D)
    if D < 2 or D % 2 != 0:
        raise ValidationError("polytope codes need an even dimension D >= 2")
    huge = cube and D >= MAX_POINTS.bit_length()
    if huge or (2**D if cube else 0) + (2 * D if orth else 0) > MAX_POINTS:
        kind = "-".join(["cube"] * cube + ["orthoplex"] * orth)
        raise _cap_error(f"a D = {D} {kind} codeword",
                         " + ".join([f"2^{D}"] * cube + [f"{2 * D}"] * orth))
    return D


def hypercube_code(D: int, K: int = 2) -> CodeSpec:
    D = _check_even_dim(D, cube=True, orth=False)
    parts = [(embed_real_to_complex(hypercube_vertices(D)), 1.0)]
    return _interleaved(f"hypercube(D={D},K={K})", parts, K, 4, 3)


def orthoplex_code(D: int, K: int = 2) -> CodeSpec:
    D = _check_even_dim(D, cube=False, orth=True)
    parts = [(embed_real_to_complex(orthoplex_vertices(D)), 1.0)]
    return _interleaved(f"orthoplex(D={D},K={K})", parts, K, 4, 3)


def _cube_orthoplex_parts(D: int, r_cube: float, r_orth: float) -> list:
    """The D-cube at radius r_cube and the D-orthoplex at r_orth with the
    per-point weight ratio w_orth/w_cube = 2^D r_cube^4 / (D^2 r_orth^4),
    which makes the degree-4 moments isotropic.  The weights are D^2 and
    2^D (r_cube/r_orth)^4, integers at equal radii, so that the normalized
    weights are rounded once."""
    orth_weight = 2.0**D * _power(r_cube / r_orth, 4)
    return [
        (embed_real_to_complex(r_cube * hypercube_vertices(D)), float(D * D)),
        (embed_real_to_complex(r_orth * orthoplex_vertices(D)), orth_weight),
    ]


def cube_orthoplex_code(D: int, K: int = 2) -> CodeSpec:
    """Union of the D-cube and D-orthoplex vertex sets on the unit sphere,
    weighted per point in the ratio D^2 : 2^D.  For D = 2 the union is a
    uniform octagon, and the codewords interleave by its 8-fold symmetry."""
    D = _check_even_dim(D, cube=True, orth=True)
    return _interleaved(f"cube_orthoplex(D={D},K={K})", _cube_orthoplex_parts(D, 1.0, 1.0), K,
                        8 if D == 2 else 4, 7 if D == 2 else 5)


def cell16_qutrit_code() -> CodeSpec:
    """Three disjoint 16-cells partitioning the unit 24-cell: a two-mode
    qutrit with one 16-cell per logical state."""
    parts = [orthoplex_vertices(4), halfcube_vertices(4, 0), halfcube_vertices(4, 1)]
    logicals = tuple(_uniform(embed_real_to_complex(v)) for v in parts)
    return CodeSpec(name="cell16_qutrit", logicals=logicals, claimed_degree=3)


def cell8_cell16_qubit_code() -> CodeSpec:
    """Two-mode qubit: one codeword on the 16-cell, the other on the 8-cell."""
    logicals = (
        _uniform(embed_real_to_complex(orthoplex_vertices(4))),
        _uniform(embed_real_to_complex(hypercube_vertices(4))),
    )
    return CodeSpec(name="cell8_cell16_qubit", logicals=logicals, claimed_degree=3)


def two_shell_cell_code(r1: float, r2: float, K: int = 2) -> CodeSpec:
    """8-cell at radius r1 and 16-cell at radius r2 with per-point weight
    ratio w16/w8 = (r1/r2)^4, the D = 4 cube-orthoplex rule; codewords
    separated by the pi/(2K) phase."""
    r1, r2 = float(r1), float(r2)
    if r1 <= 0 or r2 <= 0:
        raise ValidationError("shell radii must be positive")
    return _interleaved(f"twoshell_8_16(r1={r1:g},r2={r2:g})", _cube_orthoplex_parts(4, r1, r2),
                        K, 4, 5)


def two_shell_24cell_code(tau: float, r1: float = 1.0, K: int = 2) -> CodeSpec:
    """Two concentric 24-cells at radii r1 and r2 = tau*r1, the outer one in
    the dual orientation (rotated by the pi/4 uniform phase), with per-point
    weight (1/tau)^6 on the outer shell relative to the inner.  tau = 1 is
    rejected: both shells are then one, and as the 24-cell is invariant
    under the phase i, the base is invariant under the pi/4 phase, so at
    even K codewords K/2 apart coincide."""
    tau, r1 = float(tau), float(r1)
    if tau <= 0 or r1 <= 0:
        raise ValidationError("tau and r1 must be positive")
    if tau == 1.0:
        raise ValidationError(
            "twoshell_24cell needs tau != 1: at tau = 1 both 24-cells lie on one shell and "
            "the base is invariant under the pi/4 phase, so at even K codewords K/2 apart "
            "coincide")
    inner = r1 * embed_real_to_complex(cell24_vertices())
    outer = tau * (np.exp(0.25j * np.pi) * inner)
    parts = [(inner, 1.0), (outer, _power(1.0 / tau, 6))]
    return _interleaved(f"twoshell_24cell(tau={tau:g})", parts, K, 4, 7)


# ---------------------------------------------------------------------------
# Registry and dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    builder: Callable
    params: tuple
    summary: str
    nominal: str = ""


CATALOG: Dict[str, CatalogEntry] = {
    "cat": CatalogEntry(
        cat_code, ("m", "K", "radius"), "m-gon cat code, K interleaved codewords"
    ),
    "polygon_shells": CatalogEntry(
        polygon_shell_code,
        ("m", "p", "radii", "K"),
        "p concentric m-gons with interpolatory shell weights",
    ),
    "hypercube": CatalogEntry(
        hypercube_code, ("D", "K"), "D-cube vertices on the unit sphere"
    ),
    "orthoplex": CatalogEntry(
        orthoplex_code, ("D", "K"), "D-orthoplex (cross-polytope) vertices"
    ),
    "cube_orthoplex": CatalogEntry(
        cube_orthoplex_code,
        ("D", "K"),
        "weighted union of D-cube and D-orthoplex vertices",
    ),
    "cell16_qutrit": CatalogEntry(
        cell16_qutrit_code,
        (),
        "three 16-cells partitioning the 24-cell (2-mode qutrit)",
        nominal="(( 2, 3, 1, <2,4,4> ))",
    ),
    "cell8_cell16_qubit": CatalogEntry(
        cell8_cell16_qubit_code,
        (),
        "16-cell vs 8-cell codewords on one sphere (2-mode qubit)",
        nominal="(( 2, 2, 1, <2,4,4> ))",
    ),
    "twoshell_8_16": CatalogEntry(
        two_shell_cell_code,
        ("r1", "r2", "K"),
        "8-cell and 16-cell on two shells (2-mode qubit)",
        nominal="(( 2, 2, (2-sqrt(2))*min(r1,r2)^2, <5,6,12> ))",
    ),
    "twoshell_24cell": CatalogEntry(
        two_shell_24cell_code,
        ("tau", "r1", "K"),
        "two concentric 24-cells, outer dual-oriented (2-mode qubit)",
        nominal="(( 2, 2, ~0.56 at tau=2 and nbar=1, <6,8,12> ))",
    ),
}

# Benchmark aliases: same point budget per codeword, single- vs multi-shell.
BENCH_ALIASES: Dict[str, Callable] = {
    "qsc8": lambda: cat_code(8, 2),
    "qcc8": lambda: polygon_shell_code(4, 2, (1.0, 2.0), 2),
    "qsc12": lambda: cat_code(12, 2),
    "qcc12": lambda: polygon_shell_code(4, 3, (1.0, 2.0, 3.0), 2),
    "qsc24": lambda: cube_orthoplex_code(4, 2),
    "qcc24": lambda: two_shell_cell_code(1.0, 2.0, 2),
}


def catalog_names() -> list:
    return sorted(CATALOG) + sorted(BENCH_ALIASES)


def build_catalog_code(name: str, params: Optional[dict] = None) -> CodeSpec:
    """Build a catalog code by name with named numeric parameters."""
    params = dict(params or {})
    if name in BENCH_ALIASES:
        if params:
            raise ValidationError(f"benchmark alias {name!r} takes no parameters")
        return BENCH_ALIASES[name]()
    if name not in CATALOG:
        raise ValidationError(
            f"unknown catalog code {name!r}; available: {', '.join(catalog_names())}"
        )
    entry = CATALOG[name]
    unknown = set(params) - set(entry.params)
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) {sorted(unknown)} for {name!r}; accepted: {entry.params}"
        )
    try:
        return entry.builder(**params)
    except TypeError as exc:
        raise ValidationError(f"{name!r}: {exc}") from exc


def describe_code(code: CodeSpec, nominal: Optional[str] = None) -> str:
    """Human-readable summary of a code; ``nominal`` is a catalog entry's
    nominal-parameters text, printed when given."""
    sizes = sorted({c.size for c in code.logicals})
    size_txt = (
        f"{sizes[0]} points each" if len(sizes) == 1 else f"{'/'.join(map(str, sizes))} points"
    )
    radii = shell_radii(code.all_points())
    shell_txt = "single shell" if len(radii) == 1 else f"{len(radii)} shells"
    lines = [
        f"{code.name}: {code.modes} modes, {code.dim} codewords, {size_txt}, {shell_txt}",
        f"  shell radii: {', '.join(f'{r:g}' for r in radii)}",
    ]
    weights = sorted({round(float(x), 12) for c in code.logicals for x in c.weights})
    lines.append(f"  distinct point weights: {', '.join(f'{x:g}' for x in weights)}")
    if code.claimed_degree is not None:
        lines.append(f"  claimed cubature degree: {code.claimed_degree}")
    if nominal:
        lines.append(f"  nominal parameters: {nominal}")
    for w in code.warnings:
        lines.append(f"  warning: {w}")
    return "\n".join(lines)
