"""JSON code-definition and polynomial files.

Code schema::

    {
      "name": "my-code",
      "modes": 1,
      "shells": [1.0, 2.0],           # optional: each point's norm must match one
      "claimed_degree": 7,            # optional, may be null
      "logicals": [
        [ {"point": [[re, im], ...],  # one [re, im] pair per mode
           "weight": 0.25}, ... ],
        ...
      ]
    }

Polynomial schema (``stab --poly-file``), each polynomial the sum of
c_u prod_j a_j^{u_j} over its terms, ``re`` and ``im`` of c_u defaulting
to 0::

    {
      "polynomials": [
        {"terms": [{"u": [4], "re": 1.0}, {"u": [0], "re": -1.0}]},
        ...
      ]
    }

A code's shells are a property of its points: ``show`` and ``bounds`` read
them from the point norms (``constellation.shell_radii``).  ``shells`` is
input only, the one check of declared shells: every point's norm must match
one of them within GEOM_TOL * max(1, radius), and a mismatch is reported at
``$``.  ``dumps_code`` does not write it.

The readers validate every type invariant and report the first violation
with the JSON path of the offending field.
"""

from __future__ import annotations

import json

import numpy as np

from .constellation import GEOM_TOL, CodeSpec, WeightedConstellation
from .errors import ValidationError


class CodeFileError(ValidationError):
    """Malformed code-definition file; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise CodeFileError(path, message)


def _as_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the doubles
        value = np.inf
    _require(np.isfinite(value), path, "expected a finite number")
    return value


def _as_integer(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


def _parse_json(text: str):
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise CodeFileError("$", "invalid JSON (nested too deeply)") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise CodeFileError("$", f"invalid JSON ({exc})") from exc
    _require(isinstance(doc, dict), "$", "top level must be an object")
    return doc


def loads_code(text: str) -> CodeSpec:
    doc = _parse_json(text)

    _require("name" in doc, "$.name", "missing")
    _require(isinstance(doc["name"], str) and doc["name"], "$.name", "expected a nonempty string")

    _require("modes" in doc, "$.modes", "missing")
    _require(isinstance(doc["modes"], int) and doc["modes"] >= 1, "$.modes", "expected an integer >= 1")
    n = doc["modes"]

    shells = doc.get("shells", [])
    _require(isinstance(shells, list), "$.shells", "expected a list")
    shell_vals = []
    for i, r in enumerate(shells):
        val = _as_number(r, f"$.shells[{i}]")
        _require(val >= 0, f"$.shells[{i}]", "shell radius must be nonnegative")
        shell_vals.append(val)

    degree = doc.get("claimed_degree")
    if degree is not None:
        _require(isinstance(degree, int) and degree >= 0, "$.claimed_degree", "expected an integer >= 0 or null")

    _require("logicals" in doc, "$.logicals", "missing")
    _require(isinstance(doc["logicals"], list) and doc["logicals"], "$.logicals", "expected a nonempty list")

    logicals = []
    for k, entries in enumerate(doc["logicals"]):
        path_k = f"$.logicals[{k}]"
        _require(isinstance(entries, list) and entries, path_k, "expected a nonempty list of points")
        points = []
        weights = []
        for i, entry in enumerate(entries):
            path_i = f"{path_k}[{i}]"
            _require(isinstance(entry, dict), path_i, "expected an object with point and weight")
            _require("point" in entry, f"{path_i}.point", "missing")
            _require("weight" in entry, f"{path_i}.weight", "missing")
            pt = entry["point"]
            _require(isinstance(pt, list) and len(pt) == n, f"{path_i}.point", f"expected {n} [re, im] pairs")
            coords = []
            for j, pair in enumerate(pt):
                pth = f"{path_i}.point[{j}]"
                _require(isinstance(pair, list) and len(pair) == 2, pth, "expected an [re, im] pair")
                coords.append(complex(_as_number(pair[0], pth), _as_number(pair[1], pth)))
            w = _as_number(entry["weight"], f"{path_i}.weight")
            _require(w > 0, f"{path_i}.weight", "weight must be positive")
            points.append(coords)
            weights.append(w)
        try:
            logicals.append(WeightedConstellation(np.array(points), np.array(weights)))
        except ValidationError as exc:
            raise CodeFileError(path_k, str(exc)) from exc

    # Every point's norm must match a declared shell within
    # GEOM_TOL * max(1, radius), so that the rounding of large norms is no
    # mismatch.
    if shell_vals:
        radii = np.asarray(shell_vals)
        for k, c in enumerate(logicals):
            norms = c.radii()
            dist = (np.abs(norms[:, None] - radii) / np.maximum(1.0, radii)).min(axis=1)
            i = int(dist.argmax())
            _require(dist[i] <= GEOM_TOL, "$", f"point {i} of logical {k} has norm "
                     f"{float(norms[i])} matching no declared shell")

    return CodeSpec(name=doc["name"], logicals=tuple(logicals), claimed_degree=degree)


def load_code(path) -> CodeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_code(fh.read())


def loads_polynomials(text: str, modes: int) -> list:
    """The AnnihilationPolynomial list of a polynomial document on
    ``modes`` modes."""
    from .stabilizer import AnnihilationPolynomial

    doc = _parse_json(text)
    _require("polynomials" in doc, "$.polynomials", "missing")
    specs = doc["polynomials"]
    _require(isinstance(specs, list) and specs, "$.polynomials", "expected a nonempty list")
    polys = []
    for i, spec in enumerate(specs):
        path_i = f"$.polynomials[{i}]"
        _require(isinstance(spec, dict), path_i, "expected an object with terms")
        _require("terms" in spec, f"{path_i}.terms", "missing")
        _require(isinstance(spec["terms"], list), f"{path_i}.terms", "expected a list")
        terms = {}
        for t, term in enumerate(spec["terms"]):
            path_t = f"{path_i}.terms[{t}]"
            _require(isinstance(term, dict), path_t, "expected an object with u, re and im")
            _require("u" in term, f"{path_t}.u", "missing")
            u = term["u"]
            _require(isinstance(u, list) and len(u) == modes, f"{path_t}.u",
                     f"expected {modes} exponents")
            u = tuple(_as_integer(e, f"{path_t}.u[{j}]") for j, e in enumerate(u))
            re, im = (_as_number(term.get(key, 0.0), f"{path_t}.{key}") for key in ("re", "im"))
            terms[u] = complex(re, im)
        try:
            polys.append(AnnihilationPolynomial.from_dict(terms, modes=modes))
        except ValidationError as exc:
            raise CodeFileError(path_i, str(exc)) from exc
    return polys


def load_polynomials(path, modes: int) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_polynomials(fh.read(), modes)


def dumps_code(code: CodeSpec, indent: int = 2) -> str:
    doc = {
        "name": code.name,
        "modes": code.modes,
        "claimed_degree": code.claimed_degree,
        "logicals": [
            [
                {
                    "point": [[float(z.real), float(z.imag)] for z in pt],
                    "weight": float(w),
                }
                for pt, w in zip(c.points, c.weights)
            ]
            for c in code.logicals
        ],
    }
    return json.dumps(doc, indent=indent)


def save_code(code: CodeSpec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_code(code))
        fh.write("\n")
