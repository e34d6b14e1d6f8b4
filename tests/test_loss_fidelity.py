"""The coherent-span fidelity engine (klcheck.loss_fidelity) against two
independent references: the truncated-Fock transpose recovery
(fock.fidelity_details) and an extended-precision mpmath evaluation of the
same closed-form algebra with every loss order kept.

Tolerances are keyed on the conditioning of the code at the given scale:
the ratio of the smallest to the largest eigenvalue of the codeword Gram.
Roundoff in the Lowdin factors grows like the inverse of that ratio, in
both engines, so low amplitudes get wider bounds.
"""

import numpy as np
import pytest

from cubacode import ValidationError, build_catalog_code, normalize_energy
from cubacode.fock import FockSpace, fidelity_details
from cubacode.klcheck import LOSS_TAIL_TOL, _poisson_tails, codeword_gram, loss_fidelity


def gram_ratio(code, scale):
    ev = np.linalg.eigvalsh(codeword_gram(code, scale))
    return ev.min() / ev.max()


def tolerance(table, ratio):
    """The larger of two bounds: the first in ``table`` (pairs of least
    ratio and bound, tightest first) whose ratio the code reaches, and
    eps / ratio, the size of the roundoff in the Lowdin factors (measured
    differences reach 0.42 eps / ratio)."""
    bound = next(bound for least, bound in table if ratio >= least)
    return max(bound, np.finfo(float).eps / ratio)


# |F_engine - F_fock|.  The Fock path has errors of its own (a 1e-12
# relative eigenvalue floor, pruned branches), so these are wider than the
# engine's own error.  Largest differences measured on the grid below:
# 1.1e-9 (ratio >= 1e-2), 8.4e-8 (1e-9 <= ratio < 1e-2), 2.8e-6 at ratio
# 9.9e-12 (qsc12 at scale 0.8, where eps / ratio is 2.2e-5).
FOCK_TOL = ((1e-2, 1e-8), (0.0, 1e-6))

# |F_engine - F_exact| against the mpmath reference.  Largest differences
# measured on the single-mode codes at scales 0.8-3, gamma 0.05-0.2:
# 1.5e-11 (ratio >= 1e-4), 1.1e-9 (1e-8 <= ratio < 1e-4), 7.1e-9 at ratio
# 2.1e-9 and 1.3e-6 at ratio 9.9e-12 (qsc12 at scales 1 and 0.8); qsc24 at
# scale 1 (ratio 3.3e-10): 1.6e-9.
EXACT_TOL = ((1e-4, 1e-10), (0.0, 1e-8))

ORACLE_CASES = (
    [(name, scale, 80) for name in ("qsc8", "qcc8", "qsc12", "qcc12") for scale in (0.8, 1.0, 2.0)]
    + [(name, scale, 40) for name in ("qsc24", "qcc24", "cell16_qutrit")
       for scale in (0.9, 1.2, 1.6)]
)


def unit_code(name, **params):
    return normalize_energy(build_catalog_code(name, params or None), 1.0)[0]


@pytest.mark.parametrize("name,scale,cutoff", ORACLE_CASES, ids=lambda v: str(v))
def test_matches_fock_oracle(name, scale, cutoff):
    code = unit_code(name)
    tol = tolerance(FOCK_TOL, gram_ratio(code, scale))
    space = FockSpace(code.modes, cutoff)
    for gamma in (0.05, 0.2):
        got = loss_fidelity(code, gamma, scale)
        want = fidelity_details(code, gamma, scale, space).fidelity
        assert abs(got.fidelity - want) <= tol, (gamma, got.fidelity - want, tol)
        assert got.dropped_weight < LOSS_TAIL_TOL
        assert got.loss_order >= 1


def test_three_mode_code_matches_fock_oracle():
    code = unit_code("cube_orthoplex", D=6)
    got = loss_fidelity(code, 0.1, 0.8).fidelity
    want = fidelity_details(code, 0.1, 0.8, FockSpace(3, 16)).fidelity
    assert abs(got - want) <= tolerance(FOCK_TOL, gram_ratio(code, 0.8))


@pytest.mark.parametrize("name", ["qsc8", "qsc12", "qcc12", "qsc24", "qcc24", "cell16_qutrit"])
@pytest.mark.parametrize("scale", [0.8, 1.0, 2.0, 3.3])
def test_no_loss_gives_unit_fidelity(name, scale):
    code = unit_code(name)
    res = loss_fidelity(code, 0.0, scale)
    assert res.loss_order == 0 and res.dropped_weight == 0.0
    assert abs(res.fidelity - 1.0) <= tolerance(EXACT_TOL, gram_ratio(code, scale))


def test_fidelity_decreases_with_loss():
    code = unit_code("qcc12")
    fids = [loss_fidelity(code, g, 1.6).fidelity for g in (0.0, 0.05, 0.1, 0.2, 0.4)]
    assert all(b < a for a, b in zip(fids, fids[1:]))


def test_rejects_bad_inputs():
    code = unit_code("qsc8")
    for gamma, scale in ((-0.1, 1.0), (1.0, 1.0), (0.1, 0.0)):
        with pytest.raises(ValidationError):
            loss_fidelity(code, gamma, scale)


def test_poisson_tails_summed_upward():
    mp = pytest.importorskip("mpmath")
    lam = np.array([0.0, 1e-3, 0.5, 3.0, 30.0])
    tails = _poisson_tails(lam)
    assert np.all(tails[:, 0] == 0.0)
    for i, order in ((1, 5), (2, 10), (3, 40), (4, 60)):
        x = mp.mpf(lam[i])
        exact = mp.nsum(lambda n: mp.exp(-x) * x**n / mp.factorial(n), [order + 1, mp.inf])
        # Far below 1e-16, where a 1 - cdf tail has no digits left.
        assert abs(tails[order, i] / float(exact) - 1.0) < 1e-11


# ---------------------------------------------------------------------------
# Extended-precision reference
# ---------------------------------------------------------------------------


def exact_fidelity(code, gamma, scale, dps=30):
    """Transpose-recovery fidelity from the closed-form Gram of
    ``loss_fidelity`` with every loss order kept, in mpmath.

    With system states |s_a> = |sqrt(1-gamma) a>, environment states
    |e_a> = |sqrt(gamma) a> and orthonormalized codewords
    |L_k> = sum_a c_ak |a>, the branch Gram is G = M^+ S M with
    M[a, (mu,k)] = c_ak <mu|e_a>.  Summing over all mu,
    sum_mu <mu|e_a> <e_b|mu> = <e_b|e_a>, so everything reduces to N x N
    matrices (N points): with C = c c^+, E_ab = <e_a|e_b>, S_ab = <s_a|s_b>
    and P = C o conj(E) = M M^+,

        F = tr(E Z E Z) / K^2,   Z = C o conj(X),
        X = R^+ (R P R^+)^{-1/2} R,   S = R^+ R (Cholesky),

    where X is the matrix geometric mean of S and P^{-1}.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        pts = [[mp.mpf(scale) * mp.mpc(complex(z)) for z in p]
               for c in code.logicals for p in c.points]
        w = [mp.mpf(float(x)) for c in code.logicals for x in c.weights]
        owner = [k for k, c in enumerate(code.logicals) for _ in range(c.size)]
        n, K = len(pts), code.dim
        norm = [mp.fsum(abs(x) ** 2 for x in p) for p in pts]
        cross = [[mp.fdot(p, q, conjugate=True) for q in pts] for p in pts]

        def overlaps(f):  # <sqrt(f) a|sqrt(f) b>
            return mp.matrix([[mp.exp(f * (cross[a][b] - (norm[a] + norm[b]) / 2))
                               for b in range(n)] for a in range(n)])

        raw, S, E = overlaps(1), overlaps(1 - mp.mpf(gamma)), overlaps(mp.mpf(gamma))
        gram = mp.matrix(K, K)
        for a in range(n):
            for b in range(n):
                gram[owner[a], owner[b]] += mp.sqrt(w[a] * w[b]) * raw[a, b]
        ev, V = mp.eighe(gram)
        ginv = V * mp.diag([1 / mp.sqrt(e) for e in ev]) * V.H
        c = mp.matrix([[mp.sqrt(w[a]) * ginv[owner[a], k] for k in range(K)] for a in range(n)])
        C = c * c.H
        P = mp.matrix([[C[a, b] * mp.conj(E[a, b]) for b in range(n)] for a in range(n)])
        low = mp.cholesky(S)  # S = low low^+, R = low^+
        om, W = mp.eighe(low.H * P * low)
        B = low * W  # X = B diag(om^-1/2) B^+
        for j in range(n):
            f = 1 / mp.sqrt(mp.sqrt(om[j]))
            for a in range(n):
                B[a, j] *= f
        X = B * B.H
        Z = mp.matrix([[C[a, b] * mp.conj(X[a, b]) for b in range(n)] for a in range(n)])
        EZ = E * Z
        return float(mp.re(mp.fsum(EZ[a, b] * EZ[b, a] for a in range(n) for b in range(n))) / K**2)


@pytest.mark.parametrize("name,gamma,scale,frozen", [
    ("qsc8", 0.1, 1.0, 0.82805006372882),
    ("qsc24", 0.1, 1.0, 0.76575651421848),
    # High amplitude and loss, where the loss order reaches 27 and 37 and the
    # truncated-Fock path drifts by up to 9e-8 at cutoff 110.
    ("qcc8", 0.2, 3.0, None),
    ("qcc12", 0.2, 3.0, None),
    # Ill-conditioned: codeword Gram eigenvalue ratio 7e-7.
    ("qsc8", 0.2, 0.8, None),
])
def test_matches_extended_precision(name, gamma, scale, frozen):
    code = unit_code(name)
    exact = exact_fidelity(code, gamma, scale)
    if frozen is not None:
        assert abs(exact - frozen) < 1e-13
    got = loss_fidelity(code, gamma, scale).fidelity
    assert abs(got - exact) <= tolerance(EXACT_TOL, gram_ratio(code, scale)), got - exact
