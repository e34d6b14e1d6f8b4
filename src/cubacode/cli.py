"""Command-line interface.

Subcommands: catalog, show, params, moments, bounds, kl, stab, bench
(sweep-alpha / sweep-gamma / pair).  Codes come either from the built-in
catalog (--catalog NAME plus its numeric flags) or from a JSON definition
file (--code-file PATH).  The library returns numbers; this module alone
labels and formats them.  Reports go to standard output; CSV artifacts are
written when --out is given, one %-format string per row.  Floats are
formatted with 12 significant digits so identical inputs produce
byte-identical output.  Exit status: 0
on success, 1 on numerical failure, 2 on validation errors and on
requests too large for the available memory.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import warnings
from functools import lru_cache
from typing import List, Optional

import numpy as np

# Imported here: what parsing, error handling and building a catalog code
# need.  Each command imports the rest of what it runs when it runs, so a
# process loads only the modules its command uses.
from .catalog import BENCH_ALIASES, CATALOG, build_catalog_code, describe_code
from .constellation import (
    GEOM_TOL,
    CodeSpec,
    _match_points,
    normalize_energy,
    resolution,
    scale_code,
)
from .errors import NumericalFailure, ValidationError


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _parse_number(text: str, option: str) -> float:
    """A finite float from command-line text; anything else is a
    ValidationError naming the option."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValidationError(f"{option}: expected a finite number, got {text.strip()!r}")
    return value


_MAX_GRID_POINTS = 65536


def _parse_grid(text: str) -> List[float]:
    """a:b:n -> n evenly spaced values; or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid must be a:b:n or a comma list (got {text!r})")
        a, b, n = (_parse_number(v, "--grid") for v in parts)
        if n < 1 or n != int(n):
            raise ValidationError(f"--grid: the point count must be a positive integer ({text!r})")
        if n > _MAX_GRID_POINTS:
            raise ValidationError(
                f"--grid: {n:.12g} points, more than the cap of {_MAX_GRID_POINTS}")
        return [float(v) for v in np.linspace(a, b, int(n))]
    return _parse_floats(text, "--grid")


def _parse_floats(text: str, option: str) -> List[float]:
    return [_parse_number(v, option) for v in text.replace(":", ",").split(",") if v.strip()]


def _parse_gammas(text: str) -> List[float]:
    """The --gammas loss rates: at least one, or a ValidationError."""
    gammas = _parse_floats(text, "--gammas")
    if not gammas:
        raise ValidationError(f"--gammas: expected at least one loss rate, got {text!r}")
    return gammas


# Single-number options: argparse keeps their text, and main parses it
# before any command runs, so a bad value prints nothing but the error.
_FLOAT_OPTIONS = ("tol", "scale", "normalize", "gamma", "radius", "tau", "r1", "r2")


def _parse_float_options(args):
    for key in _FLOAT_OPTIONS:
        text = getattr(args, key, None)
        if text is not None:
            setattr(args, key, _parse_number(text, f"--{key}"))
    if getattr(args, "tol", 0.0) < 0:
        raise ValidationError(f"--tol: must be nonnegative, got {args.tol!r}")


def _add_code_source(parser: argparse.ArgumentParser):
    parser.add_argument("--catalog", help="catalog code name (see `cubacode catalog`)")
    parser.add_argument("--code-file", help="JSON code definition file")
    parser.add_argument("--m", type=int, help="points per polygon/shell")
    parser.add_argument("--K", type=int, help="number of logical codewords")
    parser.add_argument("--p", type=int, help="number of shells (polygon codes)")
    parser.add_argument("--radii", help="shell radii, e.g. 1,2 or 1:2:3-style list")
    parser.add_argument("--radius", help="single-shell radius (cat code)")
    parser.add_argument("--D", type=int, help="real dimension (polytope codes)")
    parser.add_argument("--tau", help="radius ratio (twoshell_24cell)")
    parser.add_argument("--r1", help="inner radius (twoshell_8_16)")
    parser.add_argument("--r2", help="outer radius (twoshell_8_16)")


_CATALOG_FLAGS = ("m", "K", "p", "radii", "radius", "D", "tau", "r1", "r2")


def _catalog_params(args) -> dict:
    """The catalog flags given on the command line, by name."""
    params = {}
    for flag in _CATALOG_FLAGS:
        val = getattr(args, flag, None)
        if val is not None:
            params[flag] = _parse_floats(val, "--radii") if flag == "radii" else val
    return params


def _load_code(args) -> CodeSpec:
    sources = [s for s in (args.catalog, args.code_file) if s]
    if len(sources) != 1:
        raise ValidationError("give exactly one code source: --catalog NAME or --code-file PATH")
    if args.code_file:
        from .codefile import load_code

        return load_code(args.code_file)
    return build_catalog_code(args.catalog, _catalog_params(args))


def _header(args, extra: Optional[dict] = None) -> List[str]:
    """Report header: every numeric option in effect, for auditability."""
    opts = dict(extra or {})
    for key in ("gamma", "scale", "cutoff", "ceiling", "tol", "max_degree", "max_loss",
                "normalize", "grid", "gammas", "jobs"):
        if hasattr(args, key) and getattr(args, key) is not None:
            opts.setdefault(key, getattr(args, key))
    lines = [f"# cubacode {args.command}"]
    for key in sorted(opts):
        lines.append(f"# {key} = {opts[key]}")
    return lines


def _write_csv(path: Optional[str], lines: List[str]):
    text = "".join(line + "\n" for line in lines)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(lines: List[str], out: Optional[str] = None, table: Optional[List[str]] = None):
    """Print a report's lines, then its CSV ``table`` (header line, then
    row lines) if it has one: to stdout, or to the file ``out``, which is
    written before any line is printed so that a path that cannot be
    written leaves stdout empty."""
    if table is not None and out:
        _write_csv(out, table)
    for line in lines:
        print(line)
    if table is not None:
        if out:
            print(f"wrote {out}")
        else:
            _write_csv(None, table)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    print("catalog codes:")
    for name in sorted(CATALOG):
        entry = CATALOG[name]
        params = f" ({', '.join(entry.params)})" if entry.params else ""
        print(f"  {name}{params}: {entry.summary}")
    print("benchmark aliases:")
    for name in sorted(BENCH_ALIASES):
        print(f"  {name}")
    return 0


def cmd_show(args) -> int:
    code = _load_code(args)
    entry = CATALOG.get(args.catalog)
    _emit([describe_code(code, entry.nominal if entry else None)])
    return 0


def _refuse_twin_codewords(code: CodeSpec):
    """Refuse a code two of whose codewords are the same weighted point set:
    points matched within GEOM_TOL max(1, largest amplitude), weights within
    GEOM_TOL (largest weight).  Every moment of such a pair matches, so it
    reads as protected where it encodes nothing.  Two distinct codewords
    usually part at ``_match_points``' first-image test, O(N) a pair."""
    for k, a in enumerate(code.logicals):
        for l, b in enumerate(code.logicals[k + 1:], k + 1):
            if a.size != b.size:
                continue
            big = max(1.0, float(np.abs(a.points).max()), float(np.abs(b.points).max()))
            perm = _match_points(a.points, b.points, GEOM_TOL * big)
            w_tol = GEOM_TOL * max(a.weights.max(), b.weights.max())
            if perm is not None and np.abs(a.weights[perm] - b.weights).max() <= w_tol:
                raise ValidationError(f"codewords {k} and {l} are the same weighted point "
                                      "set: the code encodes nothing")


def cmd_params(args) -> int:
    from .klcheck import code_parameters

    code = _load_code(args)
    if args.normalize is not None:
        code, _ = normalize_energy(code, args.normalize)
    triple = code_parameters(code, ceiling=args.ceiling, tol=args.tol)
    _refuse_twin_codewords(code)
    _emit(_header(args) + [
        f"(( {code.modes}, {code.dim}, {_fmt(resolution(code))}, "
        f"<{triple.t_down},{triple.d_updown},{triple.d_down}> ))"
    ])
    return 0


def cmd_moments(args) -> int:
    from .moments import pair_moments, pairs_match_degree

    code = _load_code(args)
    if code.dim < 2:
        raise ValidationError("moment comparison needs at least two codewords")
    n = code.modes
    pairs, moms = pair_moments(code, args.max_degree)
    t = pairs_match_degree(pairs, moms, tol=args.tol)
    _refuse_twin_codewords(code)
    devs = np.abs(moms - moms[0]).max(axis=0)
    # The first pair within 64 ulps of the largest deviation: pairs that
    # tie (M(q, p) is the conjugate of M(p, q)) differ only by roundoff,
    # which must not pick the one reported.
    largest = float(devs.max())
    worst = int(np.flatnonzero(devs >= largest * (1.0 - 64 * np.finfo(float).eps))[0])
    where = (tuple(pairs[worst, :n].tolist()), tuple(pairs[worst, n:].tolist()))
    lines = _header(args) + [
        f"moment match degree: {t} (searched to {args.max_degree}, tol {_fmt(args.tol)})",
        f"largest deviation {_fmt(largest)} at (p, q) = {where if largest > 0 else None}",
    ]
    table = None
    if args.out:
        # One format string per row, giving what str and _fmt give per cell:
        # p and q, then re and im of each codeword's moment, then the deviation.
        values = np.empty((len(devs), 2 * code.dim + 1))
        values[:, :-1:2] = moms.real.T
        values[:, 1:-1:2] = moms.imag.T
        values[:, -1] = devs
        index = " ".join(["%d"] * n)
        row = ",".join([index, index] + ["%.12g"] * values.shape[1])
        columns = [f"moment{k}_{part}" for k in range(code.dim) for part in ("re", "im")]
        table = [",".join(["p", "q", *columns, "max_deviation"])]
        table += [row % (*pq, *v) for pq, v in zip(pairs.tolist(), values.tolist())]
    _emit(lines, args.out, table)
    return 0


def cmd_bounds(args) -> int:
    from .moments import code_size_bounds

    code = _load_code(args)
    degree = args.degree if args.degree is not None else code.claimed_degree
    lines = _header(args)
    for k, rep in enumerate(code_size_bounds(code, t=degree)):
        tag = " (conservative: multi-shell support widened to full space)" if rep.conservative else ""
        moller = str(rep.moller_min) if rep.moller_min is not None else "n/a (even degree)"
        lines += [
            f"logical {k}: {rep.actual} points, degree {rep.t} on {rep.domain}({rep.D}){tag}",
            f"  lower bound {rep.fisher_min}, odd-degree lower bound {moller}, "
            f"upper bound {rep.tchakaloff_max}, tight: {rep.tight}",
        ]
    _emit(lines)
    return 0


def cmd_kl(args) -> int:
    from .klcheck import kl_report

    code = _load_code(args)
    _refuse_twin_codewords(code)
    report = kl_report(code, max_loss=args.max_loss, scale=args.scale)
    lines = _header(args) + [
        f"error set: loss<={report.max_loss} at scale {_fmt(report.scale)}",
        f"off-diagonal max |<C_k|E+E|C_l>|: {_fmt(report.off_diag_max)}",
        f"off-diagonal max (normalized):   {_fmt(report.off_diag_rel)}",
        f"diagonal spread (normalized):    {_fmt(report.diag_spread_max)}",
        f"diagonal spread (raw):           {_fmt(report.diag_spread_raw)}",
    ]
    table = None
    if args.out:
        # Blocks (q_mu, q_nu) in lexicographic order of the multi-indices,
        # each entry (k, l) of a block in row-major order.
        order = sorted(range(len(report.indices)), key=report.indices.__getitem__)
        names = [" ".join(map(str, report.indices[i])) for i in order]
        K = report.blocks.shape[-1]
        entries = report.blocks[np.ix_(order, order)].reshape(-1).tolist()
        keys = itertools.product(names, names, range(K), range(K))
        table = ["q_mu,q_nu,k,l,re,im"]
        table += ["%s,%s,%d,%d,%.12g,%.12g" % (*key, z.real, z.imag) for key, z in zip(keys, entries)]
    _emit(lines, args.out, table)
    return 0


def cmd_stab(args) -> int:
    from .stabilizer import check_cutoff, verify_ztype, ztype_polynomials

    code = _load_code(args)
    # Refused before the generator search, which is O(points^2).
    check_cutoff(code, args.cutoff)
    if args.poly_file:
        from .codefile import load_polynomials

        polys = load_polynomials(args.poly_file, code.modes)
    else:
        polys = ztype_polynomials(scale_code(code, args.scale))
    residual = verify_ztype(code, args.scale, args.cutoff, polys=polys)
    _emit(_header(args) + [
        f"z-type generators: {len(polys)} (degrees {[p.degree() for p in polys]})",
        f"z-type max residual ||F|C_k>||: {_fmt(residual)}",
    ])
    return 0


def _bench_pair_codes(args):
    if args.pair is not None:
        if args.pair not in (8, 12, 24):
            raise ValidationError("--pair must be 8, 12 or 24")
        qcc = build_catalog_code(f"qcc{args.pair}")
        qsc = build_catalog_code(f"qsc{args.pair}")
        return qcc, qsc
    if not (args.qcc and args.qsc):
        raise ValidationError("pair bench needs --pair N or both --qcc and --qsc")
    return build_catalog_code(args.qcc), build_catalog_code(args.qsc)


def _bench_table(label: str, points) -> List[str]:
    """A sweep's CSV: the code's label, each point's numbers and its
    infidelity 1 - F.  The last three columns keep their names from the
    truncated-Fock engine and are always 0: there is no Fock cutoff, no
    dropped weight and no loss order, since every loss order is kept."""
    return ["code,gamma,scale,nbar,fidelity,infidelity,cutoff,tail_mass,kraus_lmax"] + [
        "%s,%.12g,%.12g,%.12g,%.12g,%.12g,0,0,0"
        % (label, p.gamma, p.scale, p.nbar, p.fidelity, 1.0 - p.fidelity)
        for p in points
    ]


def _pair_table(rows) -> List[str]:
    return ["gamma,f_qsc,f_qcc,r_infidelity"] + [
        "%.12g,%.12g,%.12g,%.12g" % (r.gamma, r.f_single, r.f_multi, r.r_infidelity) for r in rows
    ]


def _gram_line(rows) -> dict:
    """Header entry for the worst-conditioned row: roundoff puts an error of
    up to about 0.42 eps / ratio on a fidelity of a multi-mode code (none
    when there are no rows)."""
    return {"min_gram_ratio": _fmt(min(r.gram_ratio for r in rows))} if rows else {}


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    if args.jobs is not None and args.jobs < 1:
        raise ValidationError(f"--jobs: must be a positive integer, got {args.jobs}")
    if args.bench_command == "pair":
        qcc, qsc = _bench_pair_codes(args)
        opt_multi, opt_single, rows = bench_mod.pair_bench(
            bench_mod.normalized(qcc), bench_mod.normalized(qsc),
            _parse_gammas(args.gammas), grid=_parse_grid(args.grid),
        )
        extra = {"qcc_alpha_op": _fmt(opt_multi[0]), "qsc_alpha_op": _fmt(opt_single[0])}
        table = _pair_table(rows)
    elif args.bench_command in ("sweep-alpha", "sweep-gamma"):
        code = _load_code(args)
        _refuse_twin_codewords(code)
        norm = bench_mod.normalized(code)
        if args.bench_command == "sweep-alpha":
            rows = bench_mod.sweep_alpha(norm, args.gamma, _parse_grid(args.grid))
        else:
            scale = None if args.alpha_op == "auto" else _parse_number(args.alpha_op, "--alpha-op")
            rows = bench_mod.sweep_gamma(
                norm, _parse_gammas(args.gammas), scale=scale, grid=_parse_grid(args.grid),
            )
        extra = {}
        table = _bench_table(args.catalog or os.path.basename(args.code_file), rows)
    else:
        raise ValidationError(f"unknown bench command {args.bench_command!r}")
    _emit(_header(args, {**extra, **_gram_line(rows)}), args.out, table)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="cubacode",
        description="coherent-state constellation codes: construction, verification, benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list available catalog codes")

    p_show = sub.add_parser("show", help="describe a code")
    _add_code_source(p_show)

    p_params = sub.add_parser("params", help="print (( n, K, d_E, <t,d,d> ))")
    _add_code_source(p_params)
    p_params.add_argument("--ceiling", type=int, default=14, help="parameter search ceiling")
    p_params.add_argument("--tol", default="1e-9", help="moment matching tolerance")
    p_params.add_argument("--normalize", default=None,
                          help="normalize mean photon number to this value first")

    p_mom = sub.add_parser("moments", help="weighted-moment comparison across codewords")
    _add_code_source(p_mom)
    p_mom.add_argument("--max-degree", type=int, default=8, dest="max_degree")
    p_mom.add_argument("--tol", default="1e-9")
    p_mom.add_argument("--out", help="CSV output path")

    p_bounds = sub.add_parser("bounds", help="constellation-size bounds")
    _add_code_source(p_bounds)
    p_bounds.add_argument("--degree", type=int, default=None,
                          help="cubature degree (default: the code's claimed degree)")

    p_kl = sub.add_parser("kl", help="closed-form error-correction condition report")
    _add_code_source(p_kl)
    p_kl.add_argument("--scale", default="2.0")
    p_kl.add_argument("--max-loss", type=int, default=2, dest="max_loss")
    p_kl.add_argument("--out", help="CSV output path")

    p_stab = sub.add_parser("stab", help="stabilizer residual tables")
    _add_code_source(p_stab)
    p_stab.add_argument("--scale", default="2.0")
    p_stab.add_argument("--cutoff", type=int, default=64)
    p_stab.add_argument("--poly-file", dest="poly_file",
                        help="JSON file with user polynomials for the scaled code")

    p_bench = sub.add_parser("bench", help="pure-loss channel benchmarks (CSV)")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    def _common_bench(p, code_source=True):
        if code_source:
            _add_code_source(p)
        p.add_argument("--grid", default="0.8:3.3:14", help="scale grid a:b:n")
        p.add_argument("--jobs", type=int, default=None,
                       help="accepted for compatibility (at least 1); has no effect")
        p.add_argument("--big", action="store_true",
                       help="accepted for compatibility; has no effect (every code runs)")
        p.add_argument("--out", help="CSV output path (default: stdout)")

    p_sa = bench_sub.add_parser("sweep-alpha", help="fidelity vs amplitude scale")
    _common_bench(p_sa)
    p_sa.add_argument("--gamma", default="0.1")

    p_sg = bench_sub.add_parser("sweep-gamma", help="fidelity vs loss rate")
    _common_bench(p_sg)
    p_sg.add_argument("--alpha-op", default="auto", dest="alpha_op",
                      help="'auto' (optimize at gamma=0.1) or a fixed scale")
    p_sg.add_argument("--gammas", default="0,0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2")

    p_pair = bench_sub.add_parser("pair", help="relative infidelity of a code pair")
    _common_bench(p_pair, code_source=False)
    p_pair.add_argument("--pair", type=int, default=None,
                        help="benchmark pair by point count: 8, 12 or 24")
    p_pair.add_argument("--qcc", help="catalog name of the multi-shell code")
    p_pair.add_argument("--qsc", help="catalog name of the single-shell code")
    p_pair.add_argument("--gammas", default="0.05,0.1,0.15,0.2")

    return parser


_COMMANDS = {
    "catalog": cmd_catalog,
    "show": cmd_show,
    "params": cmd_params,
    "moments": cmd_moments,
    "bounds": cmd_bounds,
    "kl": cmd_kl,
    "stab": cmd_stab,
    "bench": cmd_bench,
}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as its category and message, without the source
    location, which names the package's code rather than the user's input."""
    print(f"{category.__name__}: {message}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _parse_float_options(args)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: the request is too large for the available memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
