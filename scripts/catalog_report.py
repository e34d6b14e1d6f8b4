#!/usr/bin/env python3
"""Print the parameter table for the reference catalog instances:
(( n, K, d_E, <t, d, d> )) at unit mean photon number, the cubature
degree d_updown - 1 (the largest degree at which every moment matches),
and the point-count bounds.

Usage:
    python scripts/catalog_report.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubacode import (  # noqa: E402
    build_catalog_code,
    cat_code,
    code_parameters,
    cube_orthoplex_code,
    hypercube_code,
    normalize_energy,
    polygon_shell_code,
    resolution,
    two_shell_24cell_code,
    two_shell_cell_code,
)
from cubacode.moments import code_size_bounds  # noqa: E402

CASES = [
    ("4-component cat", cat_code(2, 2), 6),
    ("16-leg cat (octagon pair)", cube_orthoplex_code(2, 2), 12),
    ("24-gon cat pair", cat_code(12, 2), 14),
    ("square pair", hypercube_code(2, 2), 8),
    ("16-cell qutrit", build_catalog_code("cell16_qutrit"), 8),
    ("16-cell/8-cell qubit", build_catalog_code("cell8_cell16_qubit"), 8),
    ("24-cell pair", cube_orthoplex_code(4, 2), 14),
    ("hexagon two-shell (tau=2)", polygon_shell_code(6, 2, (1.0, 2.0)), 20),
    ("square three-shell (1:2:3)", polygon_shell_code(4, 3, (1.0, 2.0, 3.0)), 14),
    ("two-shell 8/16-cell (1:2)", two_shell_cell_code(1.0, 2.0), 14),
    ("two-shell 24-cell (tau=2)", two_shell_24cell_code(2.0), 14),
]


def main() -> int:
    print(f"{'code':34} {'params at nbar=1':34} {'degree':>6} {'N':>4} {'lower':>6} {'upper':>6}")
    for label, code, ceiling in CASES:
        normed, _ = normalize_energy(code, 1.0)
        d_e = resolution(normed)
        triple = code_parameters(code, ceiling=ceiling)
        t = triple.d_updown - 1
        rep = code_size_bounds(code)[0]
        lower = rep.moller_min if rep.moller_min is not None else rep.fisher_min
        params = (
            f"(( {code.modes}, {code.dim}, {d_e:.4g}, "
            f"<{triple.t_down},{triple.d_updown},{triple.d_down}> ))"
        )
        print(f"{label:34} {params:34} {t:>6} {rep.actual:>4} {lower:>6} {rep.tchakaloff_max:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
