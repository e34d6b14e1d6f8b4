"""Pure-loss benchmark protocol.

Codes are energy-normalized to mean photon number 1, and an amplitude
scale sweeps the mean photon number.  Every point's transpose-recovery
fidelity comes from ``klcheck.loss_fidelity``, which works in the span of
the coherent states: nothing is truncated in Fock space, so codes with
energetic outer shells, two- and three-mode codes and large scales are
all evaluated the same way.  The only truncation is the total loss order,
chosen per point so that the codeword weight it drops stays below 1e-10.

The pair comparison optimizes each code's scale at gamma = 0.1 and then
reports the relative infidelity R = (1 - F_single) / (1 - F_multi) across
a list of loss rates with the scales held fixed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constellation import CodeSpec, grid_golden_max, mean_photon_number, normalize_energy
from .errors import ValidationError
from .klcheck import loss_fidelity

DEFAULT_GRID = (0.8, 3.3, 14)


@dataclass(frozen=True)
class BenchPoint:
    """One benchmark row.  ``loss_order`` is the total loss order L kept and
    ``dropped_weight`` the bound on the codeword weight beyond it."""

    code: str
    gamma: float
    scale: float
    nbar: float
    fidelity: float
    infidelity: float
    loss_order: int
    dropped_weight: float


def _evaluate(code: CodeSpec, label: str, gamma: float, scale: float) -> BenchPoint:
    res = loss_fidelity(code, gamma, scale)
    return BenchPoint(
        code=label,
        gamma=gamma,
        scale=scale,
        nbar=float(scale**2 * np.mean([mean_photon_number(c) for c in code.logicals])),
        fidelity=res.fidelity,
        infidelity=1.0 - res.fidelity,
        loss_order=res.loss_order,
        dropped_weight=res.dropped_weight,
    )


def _parallel(tasks, jobs: Optional[int]):
    items = list(tasks)
    if jobs is not None and jobs <= 1:
        return [fn() for fn in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn) for fn in items]
        return [f.result() for f in futures]


def normalized(code: CodeSpec) -> CodeSpec:
    """The benchmark works on unit-mean-photon-number codes."""
    out, _ = normalize_energy(code, 1.0)
    return out


def sweep_alpha(
    code: CodeSpec,
    label: str,
    gamma: float,
    grid: Sequence[float],
    jobs: Optional[int] = None,
) -> List[BenchPoint]:
    """Fidelity at each amplitude scale in the grid (fixed loss rate)."""
    scales = [float(s) for s in grid]
    if not scales or any(s <= 0 for s in scales):
        raise ValidationError("scale grid must be a nonempty list of positive values")
    tasks = [(lambda s=s: _evaluate(code, label, gamma, s)) for s in sorted(scales)]
    return _parallel(tasks, jobs)


def optimal_scale_adaptive(
    code: CodeSpec,
    gamma: float,
    grid: Sequence[float],
    jobs: Optional[int] = None,
) -> Tuple[float, float]:
    """Grid scan plus golden-section refinement of the fidelity."""
    points = sweep_alpha(code, "", gamma, grid, jobs)
    return grid_golden_max(
        lambda s: _evaluate(code, "", gamma, s).fidelity,
        [p.scale for p in points], [p.fidelity for p in points], tol=1e-4, max_iter=40,
    )


def sweep_gamma(
    code: CodeSpec,
    label: str,
    gammas: Sequence[float],
    scale: Optional[float] = None,
    grid: Optional[Sequence[float]] = None,
    jobs: Optional[int] = None,
) -> List[BenchPoint]:
    """Fidelity across loss rates at a fixed scale; when no scale is given
    it is optimized at gamma = 0.1 over the grid first."""
    if scale is None:
        grid = grid if grid is not None else np.linspace(*DEFAULT_GRID)
        scale, _ = optimal_scale_adaptive(code, 0.1, grid, jobs)
    tasks = [(lambda g=g: _evaluate(code, label, float(g), float(scale))) for g in gammas]
    return _parallel(tasks, jobs)


@dataclass(frozen=True)
class PairPoint:
    gamma: float
    f_single: float
    f_multi: float

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
    jobs: Optional[int] = None,
) -> Tuple[Tuple[float, float], Tuple[float, float], List[PairPoint]]:
    """Optimize both codes' scales at gamma = 0.1 and report the relative
    infidelity R = (1 - F_single)/(1 - F_multi) with scales held fixed.

    Returns ((scale, F) for the multi-shell code, same for the single-shell
    code, and one PairPoint per loss rate).
    """
    if multi_shell.dim != single_shell.dim:
        raise ValidationError("paired codes must encode the same number of logical states")
    grid = grid if grid is not None else np.linspace(*DEFAULT_GRID)
    opt_multi = optimal_scale_adaptive(multi_shell, 0.1, grid, jobs)
    opt_single = optimal_scale_adaptive(single_shell, 0.1, grid, jobs)
    rows = []
    for g in gammas:
        fm = _evaluate(multi_shell, "", float(g), opt_multi[0]).fidelity
        fs = _evaluate(single_shell, "", float(g), opt_single[0]).fidelity
        rows.append(PairPoint(gamma=float(g), f_single=fs, f_multi=fm))
    return opt_multi, opt_single, rows
