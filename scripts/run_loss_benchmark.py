#!/usr/bin/env python3
"""Full pure-loss benchmark: amplitude sweeps, loss-rate sweeps and
pairwise relative-infidelity curves for the single- vs multi-shell code
pairs with 8, 12 and (optionally) 24 coherent states per codeword.

Writes CSV artifacts into results/ (or --outdir).  --big adds the
two-mode 24-point pair, which runs on the same grid as the others.

Usage:
    python scripts/run_loss_benchmark.py [--outdir results] [--big]
    python scripts/run_loss_benchmark.py --pairs 8 12 --gammas 0.05 0.1
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubacode import build_catalog_code, normalize_energy  # noqa: E402
from cubacode.bench import pair_bench, sweep_alpha, sweep_gamma  # noqa: E402
from cubacode.cli import (  # noqa: E402
    _BENCH_HEADER,
    _PAIR_HEADER,
    _bench_rows,
    _pair_rows,
    _write_csv,
)


def write_csv(path: Path, header, rows):
    _write_csv(path, header, rows)
    print(f"  wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--pairs", type=int, nargs="+", default=[8, 12])
    parser.add_argument("--gammas", type=float, nargs="+",
                        default=[0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.18, 0.2])
    parser.add_argument("--grid", type=float, nargs=3, default=[0.8, 3.3, 14],
                        metavar=("LO", "HI", "N"))
    parser.add_argument("--big", action="store_true",
                        help="include the two-mode 24-point pair")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pairs = list(args.pairs)
    if args.big and 24 not in pairs:
        pairs.append(24)

    grid = np.linspace(args.grid[0], args.grid[1], int(args.grid[2]))
    gamma_axis = np.round(np.arange(0.0, 0.2001, 0.02), 4)

    for ell in pairs:
        qcc = normalize_energy(build_catalog_code(f"qcc{ell}"), 1.0)[0]
        qsc = normalize_energy(build_catalog_code(f"qsc{ell}"), 1.0)[0]
        print(f"pair {ell}: amplitude sweeps at gamma = 0.1")
        points = []
        for label, code in ((f"qcc{ell}", qcc), (f"qsc{ell}", qsc)):
            points += sweep_alpha(code, label, 0.1, grid)
        write_csv(outdir / f"sweep_alpha_{ell}.csv", _BENCH_HEADER, _bench_rows(points))

        print(f"pair {ell}: loss-rate sweeps at the gamma = 0.1 optima")
        opt_qcc, opt_qsc, rows = pair_bench(qcc, qsc, args.gammas, grid)
        points = []
        for label, code, (s_op, f_op) in ((f"qcc{ell}", qcc, opt_qcc), (f"qsc{ell}", qsc, opt_qsc)):
            print(f"  {label}: alpha_op = {s_op:.4f}, F_op = {f_op:.6f}")
            points += sweep_gamma(code, label, gamma_axis, scale=s_op)
        write_csv(outdir / f"sweep_gamma_{ell}.csv", _BENCH_HEADER, _bench_rows(points))

        print(f"pair {ell}: relative infidelity at the gamma = 0.1 optima")
        write_csv(outdir / f"pair_{ell}.csv", _PAIR_HEADER, _pair_rows(rows))
    print("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
