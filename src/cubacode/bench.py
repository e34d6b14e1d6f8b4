"""Pure-loss benchmark protocol.

Codes are energy-normalized to mean photon number 1, and an amplitude
scale sweeps the mean photon number.  Every point's transpose-recovery
fidelity comes from ``klcheck.loss_fidelity``, which works in the span of
the coherent states and keeps every loss order: nothing is truncated, so
codes with energetic outer shells, two- and three-mode codes and large
scales are all evaluated the same way.

The pair comparison optimizes each code's scale at gamma = 0.1 and then
reports the relative infidelity R = (1 - F_single) / (1 - F_multi) across
a list of loss rates with the scales held fixed.

Every row carries the codeword Gram's eigenvalue ratio at its scale.  On
multi-mode codes (qcc24, qsc24, ...), roundoff in the photon-number
sectors' frames puts an error of up to about 0.42 eps / ratio on the
fidelity; the single-mode catalog codes are within 1e-12 at every ratio.

Each sweep, the rows of a pair comparison and the grid scan of a scale
search make one batched ``klcheck.loss_fidelities`` call per code; only
the search's refinement probes, by Brent's method (``grid_brent_max``),
are evaluated one at a time.

Rows carry numbers only: the CLI names the code of a sweep's rows and
computes each row's infidelity 1 - F as it formats them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .constellation import CodeSpec, mean_photon_number, normalize_energy
from .errors import DegenerateCodewordsError, NumericalFailure, ValidationError
from .klcheck import loss_fidelities

DEFAULT_GRID = (0.8, 3.3, 14)


@dataclass(frozen=True)
class BenchPoint:
    """One benchmark row.  ``gram_ratio`` is the codeword Gram's min/max
    eigenvalue ratio."""

    gamma: float
    scale: float
    nbar: float
    fidelity: float
    gram_ratio: float


def _evaluate(code: CodeSpec, points: Sequence[Tuple[float, float]]) -> List[BenchPoint]:
    """One row per (gamma, scale) point, from one batched call; the first
    point that fails raises its NumericalFailure."""
    energy = float(np.mean([mean_photon_number(c) for c in code.logicals]))
    rows = []
    for (gamma, scale), res in zip(points, loss_fidelities(code, points)):
        if isinstance(res, NumericalFailure):
            raise res
        rows.append(BenchPoint(
            gamma=gamma,
            scale=scale,
            nbar=float(scale**2 * energy),
            fidelity=res.fidelity,
            gram_ratio=res.gram_ratio,
        ))
    return rows


def normalized(code: CodeSpec) -> CodeSpec:
    """The benchmark works on unit-mean-photon-number codes."""
    out, _ = normalize_energy(code, 1.0)
    return out


def sweep_alpha(code: CodeSpec, gamma: float, grid: Sequence[float]) -> List[BenchPoint]:
    """Fidelity at each amplitude scale in the grid (fixed loss rate)."""
    return _evaluate(code, [(float(gamma), s) for s in _scales(grid)])


def _scales(grid: Sequence[float]) -> List[float]:
    scales = sorted(float(s) for s in grid)
    if not scales or not all(0.0 < s < np.inf for s in scales):
        raise ValidationError("scale grid must be a nonempty list of positive finite values")
    return scales


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


def optimal_scale_adaptive(code: CodeSpec, gamma: float, grid: Sequence[float]) -> Tuple[float, float]:
    """The scale of highest fidelity at loss rate gamma, and that fidelity.

    The grid is scanned first; Brent's method then refines between the
    best grid point's neighbours until the bracket is shorter than 1e-4
    (at most 40 more evaluations).  Scales whose codewords are degenerate
    (codeword Gram eigenvalue ratio at most klcheck.DEGENERATE_RATIO) are
    skipped; the search fails with NumericalFailure only when every grid
    point is degenerate.
    """
    def value(res) -> Optional[float]:
        if isinstance(res, DegenerateCodewordsError):
            return None
        if isinstance(res, NumericalFailure):
            raise res
        return res.fidelity

    def fidelity(s: float) -> Optional[float]:  # one refinement probe
        return value(loss_fidelities(code, [(gamma, s)])[0])

    scales = _scales(grid)
    values = [value(res) for res in loss_fidelities(code, [(gamma, s) for s in scales])]
    if all(v is None for v in values):
        raise NumericalFailure("codewords are degenerate at every grid scale")
    return grid_brent_max(fidelity, scales, values, tol=1e-4, max_iter=40)


def sweep_gamma(
    code: CodeSpec,
    gammas: Sequence[float],
    scale: Optional[float] = None,
    grid: Optional[Sequence[float]] = None,
) -> List[BenchPoint]:
    """Fidelity across loss rates at a fixed scale; when no scale is given
    it is optimized at gamma = 0.1 over the grid first."""
    if scale is None:
        grid = grid if grid is not None else np.linspace(*DEFAULT_GRID)
        scale, _ = optimal_scale_adaptive(code, 0.1, grid)
    return _evaluate(code, [(float(g), float(scale)) for g in gammas])


@dataclass(frozen=True)
class PairPoint:
    """One loss rate of a pair comparison; ``gram_ratio`` is the smaller
    codeword-Gram eigenvalue ratio of the two codes at their scales."""

    gamma: float
    f_single: float
    f_multi: float
    gram_ratio: float

    @property
    def r_infidelity(self) -> float:
        """R = (1 - F_single) / (1 - F_multi); infinite when F_multi = 1."""
        denom = 1.0 - self.f_multi
        return (1.0 - self.f_single) / denom if denom > 1e-15 else float("inf")


def pair_bench(
    multi_shell: CodeSpec,
    single_shell: CodeSpec,
    gammas: Sequence[float],
    grid: Optional[Sequence[float]] = None,
) -> Tuple[Tuple[float, float], Tuple[float, float], List[PairPoint]]:
    """Optimize both codes' scales at gamma = 0.1 and report the relative
    infidelity R = (1 - F_single)/(1 - F_multi) with scales held fixed.

    Returns ((scale, F) for the multi-shell code, same for the single-shell
    code, and one PairPoint per loss rate).
    """
    if multi_shell.dim != single_shell.dim:
        raise ValidationError("paired codes must encode the same number of logical states")
    grid = grid if grid is not None else np.linspace(*DEFAULT_GRID)
    opt_multi = optimal_scale_adaptive(multi_shell, 0.1, grid)
    opt_single = optimal_scale_adaptive(single_shell, 0.1, grid)
    multi = sweep_gamma(multi_shell, gammas, scale=opt_multi[0])
    single = sweep_gamma(single_shell, gammas, scale=opt_single[0])
    rows = [PairPoint(gamma=pm.gamma, f_single=ps.fidelity, f_multi=pm.fidelity,
                      gram_ratio=min(pm.gram_ratio, ps.gram_ratio))
            for pm, ps in zip(multi, single)]
    return opt_multi, opt_single, rows
