"""The benchmark's scale search (bench.optimal_scale_adaptive): accuracy
against a tight run of the same search, the number of fidelity evaluations
it makes, and its handling of scales where the codewords are degenerate."""

import numpy as np
import pytest

from cubacode import bench
from cubacode.bench import grid_brent_max
from cubacode.catalog import build_catalog_code
from cubacode.errors import DegenerateCodewordsError, NumericalFailure
from cubacode.klcheck import loss_fidelities, loss_fidelity

GRID = [float(s) for s in np.linspace(*bench.DEFAULT_GRID)]


def unit_code(name):
    return bench.normalized(build_catalog_code(name))


@pytest.mark.parametrize("name", ["qcc8", "qsc8", "qcc12", "qsc12", "qcc24", "cell16_qutrit"])
def test_optimal_scale_matches_tight_search(name, monkeypatch):
    code = unit_code(name)

    def fidelity(s):
        return loss_fidelity(code, 0.1, s).fidelity

    want = grid_brent_max(fidelity, GRID, [fidelity(s) for s in GRID], tol=1e-8, max_iter=200)
    points = []

    def counted(code, batch):  # every point bench evaluates
        points.extend(batch)
        return loss_fidelities(code, batch)

    monkeypatch.setattr(bench, "loss_fidelities", counted)
    scale, fid = bench.optimal_scale_adaptive(code, 0.1, GRID)
    assert abs(scale - want[0]) <= 1e-4
    assert abs(fid - want[1]) <= 1e-9
    # The grid, then at most 12 refinement probes (measured: 5-9; the
    # golden-section search this replaced needed 18-20).
    assert len(points) <= len(GRID) + 12


def test_all_degenerate_grid_raises():
    # qsc24's codeword Gram is singular to double precision below scale 0.75.
    code = unit_code("qsc24")
    with pytest.raises(NumericalFailure, match="every grid scale"):
        bench.optimal_scale_adaptive(code, 0.1, [0.1, 0.3, 0.5])
    # A row at an explicit degenerate scale still fails.
    with pytest.raises(DegenerateCodewordsError):
        bench.sweep_alpha(code, 0.1, [0.5])
