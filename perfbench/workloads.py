"""Workloads: seeded command lists, the codes each one sets up, and the
checks applied to every command's output.

A workload is a fixed list of ``cubacode`` commands.  ``ops(workload, rng)``
draws one pass of that list: the seed jitters grid endpoints, loss rates and
fixed scales inside the small ranges stated next to each draw, with the
point counts unchanged, so no result can be reused across passes or seeds.
``rng=None`` gives the canonical inputs (the nominal values, no jitter),
whose outputs are frozen in ``expected.json``.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("loss_1mode", "loss_2mode", "closed_form")

# Codes each workload builds, as (catalog name, parameters, normalize target).
# Set-up time is the time a fresh process takes to import cubacode and
# build and normalize these.
SETUP_CODES: Dict[str, List[Tuple[str, dict, Optional[float]]]] = {
    "loss_1mode": [(name, {}, 1.0) for name in ("qcc8", "qsc8", "qcc12", "qsc12")],
    "loss_2mode": [(name, {}, 1.0) for name in ("qcc24", "qsc24")],
    "closed_form": [
        ("twoshell_24cell", {"tau": 2.0}, 1.0),
        ("cube_orthoplex", {"D": 8}, 1.0),
        ("cube_orthoplex", {"D": 6}, None),
        ("cat", {"m": 8}, None),
        ("cat", {"m": 12}, None),
        ("polygon_shells", {"m": 6, "p": 2, "radii": [1.0, 2.0]}, None),
        ("polygon_shells", {"m": 4, "p": 3, "radii": [1.0, 2.0, 3.0]}, None),
    ],
}


@dataclass(frozen=True)
class Op:
    """One command of a pass.

    ``key`` names the op in ``expected.json``; ``kind`` groups ops for the
    per-command timings; ``profile`` selects the output tolerances;
    ``rows`` is the expected CSV row count of a bench op.
    """

    key: str
    kind: str
    profile: str
    argv: Tuple[str, ...]
    rows: Optional[int] = None


def _num(x: float) -> str:
    return format(x, ".6g")


def _jit(rng: Optional[random.Random], lo: float, hi: float) -> float:
    return rng.uniform(lo, hi) if rng is not None else 0.0


def _grid(rng, a: float, b: float, n: int, da: Tuple[float, float], db: Tuple[float, float]) -> str:
    return f"{_num(a + _jit(rng, *da))}:{_num(b + _jit(rng, *db))}:{n}"


def _gammas(rng, nominal, half_width: float) -> str:
    # gamma = 0 stays exact: it is the lossless anchor row (F = 1).
    return ",".join(
        _num(g + _jit(rng, -half_width, half_width)) if g > 0 else "0" for g in nominal
    )


PAIR_GAMMAS = (0.05, 0.1, 0.15, 0.2)
SWEEP_GAMMAS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2)


# Jitter exists so that no result can be reused; it is kept small so that
# the work of a pass (cutoffs, loss orders, search steps) barely changes.


def _loss_1mode(rng) -> List[Op]:
    # Default grid 0.8:3.3:14 with endpoints moved by up to 0.02 / 0.04;
    # loss rates moved by up to 0.002.
    ops = []
    for pair in (8, 12):
        ops.append(Op(
            f"pair{pair}", "bench-pair", "pair",
            ("bench", "pair", "--pair", str(pair), "--jobs", "1",
             "--grid", _grid(rng, 0.8, 3.3, 14, (-0.02, 0.02), (-0.04, 0.04)),
             "--gammas", _gammas(rng, PAIR_GAMMAS, 0.002)),
            rows=len(PAIR_GAMMAS),
        ))
    ops.append(Op(
        "qcc12_gamma", "bench-sweep-gamma", "sweep_auto",
        ("bench", "sweep-gamma", "--catalog", "qcc12", "--alpha-op", "auto", "--jobs", "1",
         "--grid", _grid(rng, 0.8, 3.3, 14, (-0.02, 0.02), (-0.04, 0.04)),
         "--gammas", _gammas(rng, SWEEP_GAMMAS, 0.002)),
        rows=len(SWEEP_GAMMAS),
    ))
    return ops


def _loss_2mode(rng) -> List[Op]:
    # Scales stay inside 0.9-2.1: the truncated-Fock path rejects qcc24
    # near scale 2.7.  Grid endpoints move inward by up to 0.02, the fixed
    # sweep-gamma scale is drawn from 1.57-1.63 per code, loss rates move by
    # up to 0.002.
    ops = []
    for code in ("qcc24", "qsc24"):
        ops.append(Op(
            f"{code}_alpha", "bench-sweep-alpha", "sweep_fixed",
            ("bench", "sweep-alpha", "--catalog", code, "--gamma", "0.1", "--big", "--jobs", "2",
             "--grid", _grid(rng, 0.9, 2.1, 7, (0.0, 0.02), (-0.02, 0.0))),
            rows=7,
        ))
    for code in ("qcc24", "qsc24"):
        ops.append(Op(
            f"{code}_gamma", "bench-sweep-gamma", "sweep_fixed",
            ("bench", "sweep-gamma", "--catalog", code, "--big", "--jobs", "2",
             "--alpha-op", _num(1.6 + _jit(rng, -0.03, 0.03)),
             "--gammas", _gammas(rng, PAIR_GAMMAS, 0.002)),
            rows=len(PAIR_GAMMAS),
        ))
    return ops


def _closed_form(rng) -> List[Op]:
    # Each command gets one continuous input jittered by at most 2 %: the
    # normalization target, the KL / stabilizer scale, a shell radius.
    # The integer results (parameter triples, degrees, bounds) do not move.
    def j(x: float, rel: float = 0.02) -> str:
        return _num(x * (1.0 + _jit(rng, -rel, rel)))

    return [
        Op("params_24cell", "params", "params",
           ("params", "--catalog", "twoshell_24cell", "--tau", "2", "--normalize", j(1.0))),
        Op("params_co8", "params", "params",
           ("params", "--catalog", "cube_orthoplex", "--D", "8", "--normalize", j(1.0))),
        Op("kl_co6", "kl", "kl",
           ("kl", "--catalog", "cube_orthoplex", "--D", "6", "--scale", j(3.0), "--max-loss", "4")),
        Op("kl_co8", "kl", "kl",
           ("kl", "--catalog", "cube_orthoplex", "--D", "8", "--scale", j(2.0), "--max-loss", "3")),
        Op("moments_cat8", "moments", "moments",
           ("moments", "--catalog", "cat", "--m", "8", "--radius", j(1.0), "--max-degree", "8")),
        Op("moments_24cell", "moments", "moments",
           ("moments", "--catalog", "twoshell_24cell", "--tau", "2", "--r1", j(1.0),
            "--max-degree", "8")),
        Op("bounds_shells", "bounds", "bounds",
           ("bounds", "--catalog", "polygon_shells", "--m", "6", "--p", "2",
            "--radii", f"1,{j(2.0)}")),
        Op("stab_cat12", "stab", "stab",
           ("stab", "--catalog", "cat", "--m", "12", "--scale", j(2.0), "--cutoff", "80")),
        Op("stab_shells3", "stab", "stab",
           ("stab", "--catalog", "polygon_shells", "--m", "4", "--p", "3", "--radii", "1,2,3",
            "--scale", j(2.0, 0.01), "--cutoff", "120")),
    ]


_BUILDERS = {"loss_1mode": _loss_1mode, "loss_2mode": _loss_2mode, "closed_form": _closed_form}


def ops(workload: str, rng: Optional[random.Random]) -> List[Op]:
    """One pass of the workload; ``rng=None`` gives the canonical inputs."""
    return _BUILDERS[workload](rng)


def pass_rng(seed: int, pass_index: int) -> random.Random:
    return random.Random(f"cubacode-bench:{seed}:{pass_index}")


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

_FLOAT = r"([-+0-9.eEinfa]+)"

# Report lines of the non-CSV commands, one regex per field group.
_REPORT_PATTERNS = {
    "params": [
        (re.compile(r"^\(\( (\d+), (\d+), " + _FLOAT + r", <(\d+),(\d+),(\d+)> \)\)$"),
         ("modes", "dim", "resolution", "t_down", "d_updown", "d_down")),
    ],
    "kl": [
        (re.compile(r"^error set: (\S+) at scale " + _FLOAT + "$"), ("error_set", "scale")),
        (re.compile(r"^off-diagonal max \|<C_k\|E\+E\|C_l>\|: " + _FLOAT + "$"), ("off_diag_max",)),
        (re.compile(r"^off-diagonal max \(normalized\): +" + _FLOAT + "$"), ("off_diag_rel",)),
        (re.compile(r"^diagonal spread \(normalized\): +" + _FLOAT + "$"), ("diag_spread",)),
        (re.compile(r"^diagonal spread \(raw\): +" + _FLOAT + "$"), ("diag_spread_raw",)),
    ],
    "moments": [
        (re.compile(r"^moment match degree: (\d+) \(searched to (\d+), tol \S+\)$"),
         ("degree", "searched")),
        (re.compile(r"^largest deviation " + _FLOAT + " at "), ("largest_deviation",)),
    ],
    "bounds": [
        (re.compile(r"^logical (\d+): (\d+) points, degree (\d+) on (\w+)\((\d+)\)"),
         ("logical", "points", "degree", "domain", "D")),
        (re.compile(r"^  lower bound (\d+), odd-degree lower bound (.+), upper bound (\d+), "
                    r"tight: (True|False)$"),
         ("lower", "odd_lower", "upper", "tight")),
    ],
    "stab": [
        (re.compile(r"^z-type generators: (\d+) \(degrees (\[.*\])\)$"), ("generators", "degrees")),
        (re.compile(r"^z-type max residual \|\|F\|C_k>\|\|: " + _FLOAT + "$"), ("residual",)),
    ],
}

# Integer and text fields of each report are compared as text; the rest
# are floats.
_TEXT_FIELDS = {"modes", "dim", "t_down", "d_updown", "d_down", "error_set", "degree",
                "searched", "logical", "points", "domain", "D", "lower", "odd_lower",
                "upper", "tight", "generators", "degrees"}


def parse_output(kind: str, text: str) -> Dict[str, list]:
    """Fields of one command's standard output, each a list of values
    (one per CSV row or per matching report line).  Raises ValueError on
    output that does not have the command's shape."""
    lines = text.splitlines()
    fields: Dict[str, list] = {}
    if kind.startswith("bench-"):
        body = []
        for line in lines:
            if line.startswith("# "):
                key, sep, value = line[2:].partition(" = ")
                if sep and key.endswith("_alpha_op"):
                    fields[key] = [float(value)]
            else:
                body.append(line)
        if not body:
            raise ValueError("no CSV header")
        columns = body[0].split(",")
        fields["columns"] = [",".join(columns)]
        for col in columns:
            fields[col] = []
        for line in body[1:]:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"ragged CSV row {line!r}")
            for col, cell in zip(columns, cells):
                fields[col].append(cell if col == "code" else float(cell))
        return fields
    for line in lines:
        if line.startswith("#"):
            continue
        for pattern, names in _REPORT_PATTERNS[kind]:
            m = pattern.match(line)
            if m:
                for name, value in zip(names, m.groups()):
                    fields.setdefault(name, []).append(
                        value if name in _TEXT_FIELDS else float(value))
    for _, names in _REPORT_PATTERNS[kind]:
        for name in names:
            if name not in fields:
                raise ValueError(f"{kind} output lacks {name!r}")
    return fields


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

# Tolerance per field, as (absolute, relative); "exact" compares text or
# integers; None leaves the field unchecked against the frozen value.
#
# Fidelities at a fixed scale get 1e-6: a more accurate engine moves the
# truncated-Fock values by about 7e-8 near scale 1, while a wrong engine
# moves them by far more.  Where the scale comes from the golden-section
# search (resolved to about 1e-4), moving the grid shifts alpha_op by
# about 2e-5 and fidelities off the search's loss rate by up to 5e-6, so
# those columns get 10x that room.  cutoff, tail_mass and kraus_lmax are
# truncation bookkeeping, not results: an engine without truncation
# changes them, so they are only required to parse.
_EXACT = "exact"
_SCALE_FIXED = (1e-12, 1e-9)
_SCALE_SEARCHED = (5e-4, 0.0)
_FID_FIXED = (1e-6, 0.0)
_FID_SEARCHED = (5e-5, 0.0)
_TRUNCATION = {"cutoff": None, "tail_mass": None, "kraus_lmax": None}

TOLERANCES: Dict[str, Dict[str, object]] = {
    "pair": {
        "columns": _EXACT, "gamma": _SCALE_FIXED,
        "qcc_alpha_op": _SCALE_SEARCHED, "qsc_alpha_op": _SCALE_SEARCHED,
        "f_qsc": _FID_SEARCHED, "f_qcc": _FID_SEARCHED, "r_infidelity": (0.0, 2e-3),
    },
    "sweep_auto": {
        "columns": _EXACT, "code": _EXACT, "gamma": _SCALE_FIXED,
        "scale": _SCALE_SEARCHED, "nbar": (0.0, 5e-4),
        "fidelity": _FID_SEARCHED, "infidelity": _FID_SEARCHED, **_TRUNCATION,
    },
    "sweep_fixed": {
        "columns": _EXACT, "code": _EXACT, "gamma": _SCALE_FIXED,
        "scale": _SCALE_FIXED, "nbar": _SCALE_FIXED,
        "fidelity": _FID_FIXED, "infidelity": _FID_FIXED, **_TRUNCATION,
    },
    "params": {
        "modes": _EXACT, "dim": _EXACT, "resolution": (0.0, 1e-9),
        "t_down": _EXACT, "d_updown": _EXACT, "d_down": _EXACT,
    },
    # Summation order may change (e.g. vectorized blocks): allow roundoff
    # on values of order one and absolute room on values that are zero.
    "kl": {
        "error_set": _EXACT, "scale": _SCALE_FIXED, "off_diag_max": (1e-9, 1e-7),
        "off_diag_rel": (1e-9, 1e-7), "diag_spread": (1e-9, 1e-7),
        "diag_spread_raw": (1e-9, 1e-7),
    },
    "moments": {"degree": _EXACT, "searched": _EXACT, "largest_deviation": (1e-9, 1e-7)},
    "bounds": {name: _EXACT for name in
               ("logical", "points", "degree", "domain", "D", "lower", "odd_lower", "upper",
                "tight")},
    "stab": {"generators": _EXACT, "degrees": _EXACT, "residual": (1e-9, 1e-4)},
}

# Fields that do not depend on the jittered inputs: every timed op must
# reproduce the canonical value exactly.
INVARIANT = {
    "pair": ("columns",),
    "sweep_auto": ("columns", "code"),
    "sweep_fixed": ("columns", "code"),
    "params": ("modes", "dim", "t_down", "d_updown", "d_down"),
    "kl": ("error_set",),
    "moments": ("degree", "searched"),
    "bounds": ("logical", "points", "degree", "domain", "D", "lower", "odd_lower", "upper",
               "tight"),
    "stab": ("generators", "degrees"),
}

_PROBABILITIES = ("fidelity", "infidelity", "f_qsc", "f_qcc")


def check(op: Op, text: str, canonical: Dict[str, list], compare_all: bool) -> List[str]:
    """Problems with one op's output (empty when it passes).

    Every op must parse, give finite numbers, keep fidelities in [0, 1],
    have the expected row count and reproduce the invariant fields of the
    canonical output.  With ``compare_all`` (the canonical inputs) every
    field is compared with the frozen value within its tolerance.
    """
    try:
        fields = parse_output(op.kind, text)
    except ValueError as exc:
        return [f"{op.key}: unparsable output: {exc}"]
    problems = []
    for name, values in fields.items():
        for v in values:
            if isinstance(v, float) and not math.isfinite(v):
                problems.append(f"{op.key}: {name} = {v}")
            if name in _PROBABILITIES and not 0.0 <= v <= 1.0:
                problems.append(f"{op.key}: {name} = {v} outside [0, 1]")
    if op.rows is not None:
        got = len(fields.get("gamma", []))
        if got != op.rows:
            problems.append(f"{op.key}: {got} rows, expected {op.rows}")
    tolerances = TOLERANCES[op.profile]
    names = tolerances if compare_all else INVARIANT[op.profile]
    for name in names:
        tol = tolerances[name]
        if tol is None:
            continue
        want, got = canonical.get(name), fields.get(name)
        if want is None or got is None or len(want) != len(got):
            problems.append(f"{op.key}: {name} = {got}, expected {want}")
            continue
        for g, w in zip(got, want):
            ok = g == w if tol == _EXACT else abs(g - w) <= tol[0] + tol[1] * abs(w)
            if not ok:
                problems.append(f"{op.key}: {name} = {g!r}, expected {w!r}")
    return problems
