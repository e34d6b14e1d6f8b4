"""Catalog of coherent-state code constructions.

Every entry is generated from its parameters (polygon order, shell count,
radii, dimension, radius ratio) rather than hard-coded point lists, so the
constructions extend beyond the specific instances used in the tests.

Planar (single-mode) codes place regular m-gons on one or more concentric
circles; shell s carries points at angles (2j + s) * pi / m and a per-shell
weight from an alternating interpolation rule in the squared radii.  The
four-dimensional codes are built from the cross-polytope (16-cell), the
hypercube (8-cell) and their union (24-cell), embedded into two modes by
pairing real coordinates.  Distinct logical codewords are obtained by
rotating a base constellation: by 2*pi*k/(K*m) for planar codes and by a
uniform per-mode phase of pi*k/(2K) for the polytope codes (the latter is
the symmetry angle pi/2 of these polytopes split across K codewords).
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
    signs = np.array(
        [s for s in itertools.product((-1.0, 1.0), repeat=D) if s.count(-1.0) % 2 == parity]
    )
    return signs / np.sqrt(D)


def cell24_vertices() -> np.ndarray:
    """Unit 24-cell: the 16-cell vertices joined with the 8-cell vertices."""
    return np.vstack([orthoplex_vertices(4), hypercube_vertices(4)])


def _uniform(points: np.ndarray) -> WeightedConstellation:
    n = points.shape[0]
    return WeightedConstellation(points, np.full(n, 1.0 / n))


def _planar_codewords(base: WeightedConstellation, K: int, m_sym: int) -> tuple:
    """K codewords: the base m_sym-fold symmetric constellation rotated by
    2*pi*k/(K*m_sym)."""
    return tuple(
        apply_rotation(base, Rotation.global_phase(1, 2.0 * np.pi * k / (K * m_sym)))
        for k in range(K)
    )


def _phase_codewords(base: WeightedConstellation, K: int) -> tuple:
    """K codewords from uniform per-mode phases pi*k/(2K) (multimode codes)."""
    return tuple(
        apply_rotation(base, Rotation.global_phase(base.modes, np.pi * k / (2.0 * K)))
        for k in range(K)
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def cat_code(m: int, K: int = 2, radius: float = 1.0) -> CodeSpec:
    """m points per codeword on one circle, uniform weights; K codewords
    interleaved by 2*pi/(K*m)."""
    m, K = int(m), int(K)
    if m < 2:
        raise ValidationError("cat code needs m >= 2 points per codeword")
    if K < 1:
        raise ValidationError("cat code needs K >= 1")
    if radius <= 0:
        raise ValidationError("cat code radius must be positive")
    base = _uniform(regular_polygon(m, radius))
    return CodeSpec(
        name=f"cat(m={m},K={K})",
        logicals=_planar_codewords(base, K, m),
        shells=(radius,),
        claimed_degree=m - 1,
    )


def polygon_shell_weights(m: int, radii: Sequence[float]) -> np.ndarray:
    """Per-shell weights (normalized per point) for p concentric m-gons.

    Shell 1 gets 1/r_1^m; shell s >= 2 gets
    (-1)^s / r_s^m * prod_{2 <= l <= p, l != s} (r_1^2 - r_l^2)/(r_s^2 - r_l^2),
    all divided by the total mass m * sum_s w_s.
    """
    r = np.asarray(radii, dtype=float)
    p = r.size
    w = np.empty(p)
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
    if int(K) < 1:
        raise ValidationError("polygon shell code needs K >= 1")
    t = m + 2 * p - 3
    warnings = ()
    if p > (t + 5) // 4:
        warnings = (
            f"shell count p={p} exceeds the tight-design limit {(t + 5) // 4} for degree {t}",
        )
    shell_w = polygon_shell_weights(m, r)
    points = np.vstack(
        [regular_polygon(m, r[s - 1], offset=s * np.pi / m) for s in range(1, p + 1)]
    )
    weights = np.repeat(shell_w, m)
    base = WeightedConstellation(points, weights / weights.sum())
    return CodeSpec(
        name=f"polygon_shells(m={m},p={p})",
        logicals=_planar_codewords(base, int(K), m),
        shells=r,
        claimed_degree=t,
        warnings=warnings,
    )


def _check_even_dim(D: int) -> int:
    D = int(D)
    if D < 2 or D % 2 != 0:
        raise ValidationError("polytope codes need an even dimension D >= 2")
    return D


def hypercube_code(D: int, K: int = 2) -> CodeSpec:
    D = _check_even_dim(D)
    base = _uniform(embed_real_to_complex(hypercube_vertices(D)))
    logicals = _planar_codewords(base, int(K), 4) if D == 2 else _phase_codewords(base, int(K))
    return CodeSpec(
        name=f"hypercube(D={D},K={K})", logicals=logicals, shells=(1.0,), claimed_degree=3
    )


def orthoplex_code(D: int, K: int = 2) -> CodeSpec:
    D = _check_even_dim(D)
    base = _uniform(embed_real_to_complex(orthoplex_vertices(D)))
    logicals = _planar_codewords(base, int(K), 4) if D == 2 else _phase_codewords(base, int(K))
    return CodeSpec(
        name=f"orthoplex(D={D},K={K})", logicals=logicals, shells=(1.0,), claimed_degree=3
    )


def cube_orthoplex_code(D: int, K: int = 2) -> CodeSpec:
    """Union of the D-cube and D-orthoplex vertex sets on the unit sphere,
    with weights D/(2^D (D+2)) per cube point and 1/(D (D+2)) per orthoplex
    point.  For D = 2 the union is a uniform octagon."""
    D = _check_even_dim(D)
    cube = embed_real_to_complex(hypercube_vertices(D))
    orth = embed_real_to_complex(orthoplex_vertices(D))
    w_cube = D / (2.0**D * (D + 2))
    w_orth = 1.0 / (D * (D + 2))
    points = np.vstack([cube, orth])
    weights = np.concatenate([np.full(cube.shape[0], w_cube), np.full(orth.shape[0], w_orth)])
    base = WeightedConstellation(points, weights / weights.sum())
    # The D = 2 union is a regular octagon, so the codeword interleaving uses
    # its full 8-fold symmetry.
    logicals = _planar_codewords(base, int(K), 8) if D == 2 else _phase_codewords(base, int(K))
    return CodeSpec(
        name=f"cube_orthoplex(D={D},K={K})",
        logicals=logicals,
        shells=(1.0,),
        claimed_degree=7 if D == 2 else 5,
    )


def cell16_qutrit_code() -> CodeSpec:
    """Three disjoint 16-cells partitioning the unit 24-cell: a two-mode
    qutrit with one 16-cell per logical state."""
    parts = [orthoplex_vertices(4), halfcube_vertices(4, 0), halfcube_vertices(4, 1)]
    logicals = tuple(_uniform(embed_real_to_complex(v)) for v in parts)
    return CodeSpec(
        name="cell16_qutrit", logicals=logicals, shells=(1.0,), claimed_degree=3
    )


def cell8_cell16_qubit_code() -> CodeSpec:
    """Two-mode qubit: one codeword on the 16-cell, the other on the 8-cell."""
    logicals = (
        _uniform(embed_real_to_complex(orthoplex_vertices(4))),
        _uniform(embed_real_to_complex(hypercube_vertices(4))),
    )
    return CodeSpec(
        name="cell8_cell16_qubit", logicals=logicals, shells=(1.0,), claimed_degree=3
    )


def two_shell_cell_code(r1: float, r2: float, K: int = 2) -> CodeSpec:
    """8-cell at radius r1 and 16-cell at radius r2 with per-point weight
    ratio w16/w8 = (r1/r2)^4; codewords separated by the pi/(2K) phase."""
    r1, r2 = float(r1), float(r2)
    if r1 <= 0 or r2 <= 0:
        raise ValidationError("shell radii must be positive")
    cube = r1 * embed_real_to_complex(hypercube_vertices(4))
    orth = r2 * embed_real_to_complex(orthoplex_vertices(4))
    w8 = 1.0
    w16 = (r1 / r2) ** 4
    points = np.vstack([cube, orth])
    weights = np.concatenate([np.full(16, w8), np.full(8, w16)])
    base = WeightedConstellation(points, weights / weights.sum())
    return CodeSpec(
        name=f"twoshell_8_16(r1={r1:g},r2={r2:g})",
        logicals=_phase_codewords(base, int(K)),
        shells=tuple(sorted({r1, r2})),
        claimed_degree=5,
    )


def two_shell_24cell_code(tau: float, r1: float = 1.0, K: int = 2) -> CodeSpec:
    """Two concentric 24-cells at radii r1 and r2 = tau*r1, the outer one in
    the dual orientation (rotated by the pi/4 uniform phase), with per-point
    weight (1/tau)^6 on the outer shell relative to the inner."""
    tau, r1 = float(tau), float(r1)
    if tau <= 0 or r1 <= 0:
        raise ValidationError("tau and r1 must be positive")
    inner = r1 * embed_real_to_complex(cell24_vertices())
    dual = apply_rotation(_uniform(inner), Rotation.global_phase(2, np.pi / 4)).points
    outer = tau * dual
    points = np.vstack([inner, outer])
    weights = np.concatenate([np.full(24, 1.0), np.full(24, (1.0 / tau) ** 6)])
    base = WeightedConstellation(points, weights / weights.sum())
    shells = (r1,) if tau == 1.0 else (r1, tau * r1)
    return CodeSpec(
        name=f"twoshell_24cell(tau={tau:g})",
        logicals=_phase_codewords(base, int(K)),
        shells=shells,
        claimed_degree=7,
    )


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


def describe(name: str, params: Optional[dict] = None) -> str:
    """Human-readable summary of a catalog entry instantiated with params."""
    entry = CATALOG.get(name)
    return describe_code(build_catalog_code(name, params), entry.nominal if entry else None)


def describe_code(code: CodeSpec, nominal: Optional[str] = None) -> str:
    """Human-readable summary of a code; ``nominal`` is a catalog entry's
    nominal-parameters text, printed when given."""
    sizes = sorted({c.size for c in code.logicals})
    size_txt = (
        f"{sizes[0]} points each" if len(sizes) == 1 else f"{'/'.join(map(str, sizes))} points"
    )
    shell_txt = "single shell" if len(code.shells) <= 1 else f"{len(code.shells)} shells"
    lines = [
        f"{code.name}: {code.modes} modes, {code.dim} codewords, {size_txt}, {shell_txt}",
    ]
    if code.shells:
        lines.append(f"  shell radii: {', '.join(f'{r:g}' for r in code.shells)}")
    weights = sorted({round(float(x), 12) for c in code.logicals for x in c.weights})
    lines.append(f"  distinct point weights: {', '.join(f'{x:g}' for x in weights)}")
    if code.claimed_degree is not None:
        lines.append(f"  claimed cubature degree: {code.claimed_degree}")
    if nominal:
        lines.append(f"  nominal parameters: {nominal}")
    for w in code.warnings:
        lines.append(f"  warning: {w}")
    return "\n".join(lines)
