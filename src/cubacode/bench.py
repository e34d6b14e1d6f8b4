"""Pure-loss benchmark protocol.

Codes are energy-normalized to mean photon number 1, an amplitude scale
sweeps the mean photon number, and each code is always simulated at a
per-mode cutoff adequate for its own components: the base cutoff acts as
a floor and is raised (in steps of 8, within the dimension budget) until
the worst weighted codeword tail clears a margin below the encoding
tolerance.  Without this, codes with energetic outer shells would have
their sweeps truncated asymmetrically relative to single-shell codes at
the same mean photon number.

The pair comparison optimizes each code's scale at gamma = 0.1 and then
reports the relative infidelity R = (1 - F_single) / (1 - F_multi) across
a list of loss rates with the scales held fixed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .constellation import CodeSpec, grid_golden_max, normalize_energy
from .errors import CutoffError, ValidationError
from .fock import FockSpace, dim_budget, fidelity_details

DEFAULT_GRID = (0.8, 3.3, 14)
DEFAULT_BASE_CUTOFF = 40
# Margin below the 1e-10 encoding tail tolerance when sizing the cutoff.
_CUTOFF_TAIL_TOL = 1e-11


def poisson_sf(k: int, lam: float) -> float:
    """P(Poisson(lam) >= k)."""
    if lam <= 0.0:
        return 0.0
    log_term = -lam
    cdf = 0.0
    for i in range(k):
        cdf += math.exp(log_term)
        log_term += math.log(lam) - math.log(i + 1)
    return max(0.0, 1.0 - cdf)


def suggest_cutoff(
    code: CodeSpec,
    scale: float,
    base: int = DEFAULT_BASE_CUTOFF,
    tail_tol: float = _CUTOFF_TAIL_TOL,
    step: int = 8,
) -> int:
    """Smallest per-mode cutoff >= base keeping every codeword's weighted
    Poisson tail below tail_tol, within the dimension budget."""
    cap = int(dim_budget() ** (1.0 / code.modes))
    nc = int(base)
    if nc > cap:
        raise CutoffError(f"base cutoff {nc} exceeds the dimension budget for {code.modes} modes")
    while True:
        worst = 0.0
        for c in code.logicals:
            tail = 0.0
            for w, pt in zip(c.weights, c.points):
                tail += w * sum(poisson_sf(nc, abs(scale * z) ** 2) for z in pt)
            worst = max(worst, tail)
        if worst <= tail_tol:
            return nc
        if nc + step > cap:
            raise CutoffError(
                f"no cutoff within the dimension budget fits scale {scale:g} "
                f"(weighted tail {worst:.3e} at cutoff {nc})"
            )
        nc += step


@dataclass(frozen=True)
class BenchPoint:
    code: str
    gamma: float
    scale: float
    nbar: float
    fidelity: float
    infidelity: float
    cutoff: int
    tail_mass: float
    kraus_lmax: int


def _evaluate(code: CodeSpec, label: str, gamma: float, scale: float, base_cutoff: int) -> BenchPoint:
    nc = suggest_cutoff(code, scale, base=base_cutoff)
    det = fidelity_details(code, gamma, scale, FockSpace(code.modes, nc))
    return BenchPoint(
        code=label,
        gamma=gamma,
        scale=scale,
        nbar=det.nbar,
        fidelity=det.fidelity,
        infidelity=1.0 - det.fidelity,
        cutoff=nc,
        tail_mass=det.tail_mass,
        kraus_lmax=det.kraus_l_max,
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
    base_cutoff: int = DEFAULT_BASE_CUTOFF,
    jobs: Optional[int] = None,
) -> List[BenchPoint]:
    """Fidelity at each amplitude scale in the grid (fixed loss rate)."""
    scales = [float(s) for s in grid]
    if not scales or any(s <= 0 for s in scales):
        raise ValidationError("scale grid must be a nonempty list of positive values")
    tasks = [
        (lambda s=s: _evaluate(code, label, gamma, s, base_cutoff)) for s in sorted(scales)
    ]
    return _parallel(tasks, jobs)


def optimal_scale_adaptive(
    code: CodeSpec,
    gamma: float,
    grid: Sequence[float],
    base_cutoff: int = DEFAULT_BASE_CUTOFF,
    jobs: Optional[int] = None,
) -> Tuple[float, float]:
    """Grid scan plus golden-section refinement with per-point cutoffs."""
    points = sweep_alpha(code, "", gamma, grid, base_cutoff, jobs)
    return grid_golden_max(
        lambda s: _evaluate(code, "", gamma, s, base_cutoff).fidelity,
        [p.scale for p in points], [p.fidelity for p in points], tol=1e-4, max_iter=40,
    )


def sweep_gamma(
    code: CodeSpec,
    label: str,
    gammas: Sequence[float],
    scale: Optional[float] = None,
    grid: Optional[Sequence[float]] = None,
    base_cutoff: int = DEFAULT_BASE_CUTOFF,
    jobs: Optional[int] = None,
) -> List[BenchPoint]:
    """Fidelity across loss rates at a fixed scale; when no scale is given
    it is optimized at gamma = 0.1 over the grid first."""
    if scale is None:
        grid = grid if grid is not None else np.linspace(*DEFAULT_GRID)
        scale, _ = optimal_scale_adaptive(code, 0.1, grid, base_cutoff, jobs)
    tasks = [
        (lambda g=g: _evaluate(code, label, float(g), float(scale), base_cutoff))
        for g in gammas
    ]
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
    base_cutoff: int = DEFAULT_BASE_CUTOFF,
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
    opt_multi = optimal_scale_adaptive(multi_shell, 0.1, grid, base_cutoff, jobs)
    opt_single = optimal_scale_adaptive(single_shell, 0.1, grid, base_cutoff, jobs)
    rows = []
    for g in gammas:
        fm = _evaluate(multi_shell, "", float(g), opt_multi[0], base_cutoff).fidelity
        fs = _evaluate(single_shell, "", float(g), opt_single[0], base_cutoff).fidelity
        rows.append(PairPoint(gamma=float(g), f_single=fs, f_multi=fm))
    return opt_multi, opt_single, rows
