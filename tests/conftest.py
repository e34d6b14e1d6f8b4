import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import settings

from cubacode.constellation import CodeSpec, WeightedConstellation
from cubacode.errors import ValidationError
from cubacode.moments import (
    _compositions,
    _index_box,
    _monomials,
    pair_moments,
    pairs_match_degree,
)
from cubacode.stabilizer import _coherent_rows, _pairwise_overlaps, _product_sum

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")

SRC = Path(__file__).resolve().parents[1] / "src"


def annihilation(cutoff):
    """Single-mode annihilation operator on levels 0..cutoff-1, as a dense
    matrix: the reference the Fock-space tests build their operators from."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(1, cutoff)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


def pair_nearest(points) -> float:
    """The least squared distance over index pairs i != j, each summed one
    real coordinate at a time as a pair loop sums it: the all-pairs
    reference of the distance kernels."""
    x = np.ascontiguousarray(points).view(float)
    d2 = np.zeros((len(x), len(x)))
    for col in x.T:
        d2 += np.square(col[:, None] - col)
    np.fill_diagonal(d2, np.inf)
    return float(d2.min())


def as_amplitude(coords) -> np.ndarray:
    """Validate and return a single amplitude point as a 1-D complex array."""
    a = np.atleast_1d(np.asarray(coords, dtype=complex))
    if a.ndim != 1 or a.size < 1:
        raise ValidationError("amplitude point must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError("amplitude point has non-finite entries")
    return a


def coherent_overlap(a, b) -> complex:
    """Inner product of two coherent states with amplitude vectors a, b."""
    a = as_amplitude(a)
    b = as_amplitude(b)
    if a.shape != b.shape:
        raise ValidationError("amplitude points must share the mode count")
    return complex(
        np.exp(-0.5 * np.vdot(a, a).real - 0.5 * np.vdot(b, b).real + np.vdot(a, b))
    )


def ladder_matrix_element(a, b, p: Sequence[int], q: Sequence[int]) -> complex:
    """Exact matrix element <a| prod_j (a_j^+)^p_j a_j^q_j |b>."""
    a = as_amplitude(a)
    b = as_amplitude(b)
    p = np.asarray(p, dtype=int)
    q = np.asarray(q, dtype=int)
    if not (a.shape == b.shape == p.shape == q.shape):
        raise ValidationError("amplitudes and multi-indices must share the mode count")
    return complex(np.prod(np.conj(a) ** p * b**q) * coherent_overlap(a, b))


def codeword_gram(code: CodeSpec, scale: float = 1.0) -> np.ndarray:
    """Gram matrix of the raw codeword vectors sum_a sqrt(w_a) |scale*a>,
    made exactly Hermitian (ill-conditioned Grams amplify any roundoff
    asymmetry)."""
    pts = scale * code.all_points()
    # c[a, k] = sqrt(w_a) for the points a of codeword k, 0 elsewhere.
    c = np.zeros((len(pts), code.dim))
    for k, (rows, logical) in enumerate(zip(code.codeword_rows(), code.logicals)):
        c[rows, k] = np.sqrt(logical.weights)
    g = c.T @ _pairwise_overlaps(pts, pts) @ c
    return 0.5 * (g + np.conj(g.T))


def coherent_fock(point, cutoff: int) -> np.ndarray:
    """The tensor product of per-mode coherent states truncated to levels
    0..cutoff-1, coefficients e^{-|a|^2/2} a^k / sqrt(k!), not renormalized:
    the Z-check's own codeword rows for one point.

    The basis is C-order over the level tuple (mode 0 most significant),
    matching np.kron with mode 0 as the left factor.
    """
    return _product_sum(_coherent_rows(as_amplitude(point), cutoff)[None], np.ones(1))


def point_moments(c: WeightedConstellation, p, q) -> np.ndarray:
    """M[i, j] = M(p_i, q_j), M(p, q) = sum_a w_a prod_m conj(a_m)^p_m a_m^q_m,
    for multi-index stacks p (A x n) and q (B x n), or single multi-indices
    (a stack of one), summed one point at a time: the plain reference of
    the moment tables."""
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    m = np.zeros((len(p), len(q)), dtype=complex)
    for a, w in zip(c.points, c.weights):
        m += w * np.outer(np.prod(np.conj(a) ** p, axis=1), np.prod(a ** q, axis=1))
    return m


def match_degree(code: CodeSpec, t_max: int, tol: float = 1e-9) -> int:
    """The moment match degree that ``cubacode moments`` prints: read off
    the table of every pair (p, q) with |p| + |q| <= t_max."""
    return pairs_match_degree(*pair_moments(code, t_max), tol)


def param_triple(params) -> tuple:
    """(t_down, d_updown, d_down) of a ParamTriple."""
    return (params.t_down, params.d_updown, params.d_down)


def evaluate_polynomial(poly, points) -> np.ndarray:
    """An AnnihilationPolynomial's value sum_u c_u prod_j a_j^u_j at each
    point (one row per point)."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    out = np.zeros(pts.shape[0], dtype=complex)
    for u, c in poly.terms:
        out += c * np.prod(pts ** np.asarray(u), axis=1)
    return out


def haar_unitary(n, seed):
    """A Haar-random n x n unitary: the QR factor of a complex Gaussian
    matrix, its columns' phases fixed by R's diagonal (Mezzadri 2007)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def multi_indices(n: int, total: int) -> Iterator[tuple]:
    """All length-n multi-indices with |u| == total, lexicographic order."""
    return map(tuple, _compositions(n, total).tolist())


def embed_complex_to_real(points) -> np.ndarray:
    """(N, n) complex -> (N, 2n) real, each mode split into its real and
    imaginary parts: the inverse of constellation.embed_real_to_complex."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    out = np.empty((pts.shape[0], 2 * pts.shape[1]))
    out[:, 0::2] = pts.real
    out[:, 1::2] = pts.imag
    return out


def sphere_monomial_integral_exact(D: int, u: Sequence[int]) -> Fraction:
    """Exact normalized integral of x^u over the unit sphere S^{D-1}.

    Zero when any exponent is odd; otherwise
        prod_j (u_j - 1)!!  /  prod_{i=1}^{|u|/2} (D + 2i - 2),
    the Gamma-function ratio
        Gamma(D/2) * prod_j Gamma((u_j+1)/2) / (pi^{D/2} * Gamma((D+|u|)/2))
    reduced to integers (surface measure normalized to 1).
    """
    if D < 1:
        raise ValidationError("sphere dimension parameter D must be >= 1")
    u = tuple(int(x) for x in u)
    if len(u) != D:
        raise ValidationError(f"monomial exponent vector must have length D={D}")
    if any(x < 0 for x in u):
        raise ValidationError("monomial exponents must be nonnegative")
    if any(x % 2 == 1 for x in u):
        return Fraction(0)
    num = 1
    for x in u:
        for k in range(x - 1, 0, -2):
            num *= k
    den = 1
    total = sum(u)
    for i in range(1, total // 2 + 1):
        den *= D + 2 * i - 2
    return Fraction(num, den)


def sphere_monomial_integral(D: int, u: Sequence[int]) -> float:
    return float(sphere_monomial_integral_exact(D, u))


def design_moment_deviation(points: np.ndarray, weights: np.ndarray, t: int) -> float:
    """Max |weighted moment - sphere integral| over real monomials of
    degree <= t, for unit-norm real points of any dimension."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    D = pts.shape[1]
    us = _index_box(D, int(t))
    exact = np.array([sphere_monomial_integral(D, u) for u in us.tolist()])
    return float(np.abs(_monomials(pts, int(t)) @ w - exact).max())


def is_spherical_design(c: WeightedConstellation, t: int, tol: float = 1e-9) -> bool:
    """True iff the real-embedded, radius-normalized points reproduce every
    sphere monomial integral of degree <= t within tol.

    The constellation must live on a single shell.
    """
    radii = c.radii()
    if radii.max() - radii.min() > 1e-9:
        raise ValidationError("spherical design check needs a single-shell constellation")
    if radii.max() <= 0:
        raise ValidationError("spherical design check needs nonzero radius")
    pts = embed_complex_to_real(c.points) / radii[:, None]
    return design_moment_deviation(pts, c.weights, t) <= tol


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def run_python(*args, timeout=120):
    """Run ``python *args`` in a fresh interpreter that imports cubacode from
    this checkout's ``src`` (put first on PYTHONPATH); returns the
    CompletedProcess with stdout and stderr captured as text."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="session")
def fresh_python():
    """:func:`run_python`, for tests that need a process of their own."""
    return run_python
