import math

import numpy as np
import pytest

from cubacode import (
    ValidationError,
    build_catalog_code,
    cat_code,
    coherent_overlap,
    loss_fidelity,
    normalize_energy,
    verify_ztype,
)
from cubacode.stabilizer import _encoded_states, coherent_fock, dim_budget


@pytest.fixture(scope="module")
def cat2_unit():
    code, _ = normalize_energy(cat_code(2, 2), 1.0)
    return code


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def test_vacuum_state():
    st = coherent_fock([0.0], 40)
    expected = np.zeros(40)
    expected[0] = 1.0
    assert np.allclose(st, expected)
    assert np.vdot(st, st).real == 1.0


def test_coherent_norm_at_adequate_cutoff():
    st = coherent_fock([2.0], 40)
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12


def test_fock_overlap_matches_closed_form(rng):
    for _ in range(10):
        a = rng.normal(size=1) + 1j * rng.normal(size=1)
        b = rng.normal(size=1) + 1j * rng.normal(size=1)
        fa = coherent_fock(a, 40)
        fb = coherent_fock(b, 40)
        assert np.vdot(fa, fb) == pytest.approx(coherent_overlap(a, b), abs=1e-10)


@pytest.mark.parametrize("alpha,cutoff", [
    (0.3j, 10), (3 - 4j, 60), (25 * np.exp(0.7j), 900), (40.0, 2000)])
def test_coherent_coefficients_match_extended_precision(alpha, cutoff):
    # e^{-|a|^2/2} underflows at |a|^2 = 1600; the coefficients near the
    # peak must not.  Entries whose true value underflows must read 0.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    st = coherent_fock([alpha], cutoff)
    a = mp.mpc(alpha.real, alpha.imag) if isinstance(alpha, complex) else mp.mpf(alpha)
    peak = int(abs(alpha) ** 2)
    for k in sorted({0, 1, peak // 2, peak, min(cutoff - 1, 3 * peak // 2), cutoff - 1}):
        ref = complex(mp.exp(-abs(a) ** 2 / 2) * a**k / mp.sqrt(mp.factorial(k)))
        assert abs(st[k] - ref) <= 1e-12 * abs(ref) + 1e-300
    if cutoff > abs(alpha) ** 2 + 10 * abs(alpha):
        assert abs(np.linalg.norm(st) - 1.0) < 1e-12


def test_two_mode_coherent_state():
    st = coherent_fock([0.5, -0.3j], 12)
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12
    tens = st.reshape(12, 12)
    a0 = coherent_fock([0.5], 12)
    a1 = coherent_fock([-0.3j], 12)
    assert np.allclose(tens, np.outer(a0, a1))


def test_space_budget_enforced():
    # Two modes at cutoff 65: dimension 4225, over the default 4096.
    with pytest.raises(ValidationError, match="budget"):
        verify_ztype(build_catalog_code("cell16_qutrit"), 1.0, 65)


def test_cutoff_below_two_is_rejected():
    with pytest.raises(ValidationError, match="at least 2"):
        verify_ztype(cat_code(2, 2), 1.0, 1)


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0", "-3"])
def test_malformed_budget_is_rejected(value, monkeypatch):
    monkeypatch.setenv("CUBACODE_DIM_BUDGET", value)
    with pytest.raises(ValidationError, match="CUBACODE_DIM_BUDGET"):
        verify_ztype(cat_code(2, 2), 1.0, 40)


def test_budget_from_environment(monkeypatch):
    monkeypatch.setenv("CUBACODE_DIM_BUDGET", "64")
    assert dim_budget() == 64
    assert verify_ztype(cat_code(2, 2), 1.0, 64) < 1e-8
    with pytest.raises(ValidationError, match="budget 64"):
        verify_ztype(cat_code(2, 2), 1.0, 65)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def code_basis(code, scale, cutoff):
    """An orthonormal basis of the truncated code space: the QR factor of
    the codeword vectors sum_a sqrt(w_a)|scale*a>.  Fidelities and the code
    projector do not depend on which orthonormal basis is used."""
    return np.linalg.qr(np.column_stack(_encoded_states(code, scale, cutoff)))[0]


def test_encode_raw_overlap_matches_four_term_sum():
    code = cat_code(2, 2)
    scale = 2.0
    raw = np.zeros((40, 2), dtype=complex)
    for k, c in enumerate(code.logicals):
        for w, pt in zip(c.weights, c.points):
            raw[:, k] += np.sqrt(w) * coherent_fock(scale * pt, 40)
    analytic = sum(
        0.5 * coherent_overlap([a], [b]) for a in (2.0, -2.0) for b in (2.0j, -2.0j)
    )
    assert np.vdot(raw[:, 0], raw[:, 1]) == pytest.approx(analytic, abs=1e-10)


# ---------------------------------------------------------------------------
# Loss channel and transpose recovery from explicit matrices
# ---------------------------------------------------------------------------


def dense_loss_kraus(gamma, cutoff, modes=1, l_max=None):
    """Pure-loss Kraus operators on ``modes`` modes with levels
    0..cutoff-1, losing at most ``l_max`` photons per mode (by default
    every loss order the cutoff allows), as dense matrices:
    E_l|m> = sqrt(C(m, l) gamma^l (1-gamma)^(m-l)) |m-l> on each mode, and
    their tensor products."""
    n = cutoff
    singles = []
    for l in range(n if l_max is None else l_max + 1):
        e = np.zeros((n, n))
        for m in range(l, n):
            e[m - l, m] = np.sqrt(math.comb(m, l) * gamma**l * (1 - gamma) ** (m - l))
        singles.append(e)
    ops = singles
    for _ in range(modes - 1):
        ops = [np.kron(a, b) for a in ops for b in singles]
    return ops


def petz_logical_kraus(v, kraus):
    """Kraus operators V^+ R_j K_l V of transpose recovery after the channel
    ``kraus``, on the code with isometry ``v``: R_j = P K_j^+ N(P)^{-1/2},
    with P = V V^+ and N(P) = sum_l K_l P K_l^+, the inverse square root
    taken on the support of N(P) (eigenvalues above 1e-12 of the largest)."""
    p = v @ v.conj().T
    lam, w = np.linalg.eigh(sum(k @ p @ k.conj().T for k in kraus))
    keep = lam > 1e-12 * lam.max()
    inv_sqrt = (w[:, keep] / np.sqrt(lam[keep])) @ w[:, keep].conj().T
    decoders = [v.conj().T @ p @ k.conj().T @ inv_sqrt for k in kraus]
    images = [k @ v for k in kraus]
    return [d @ b for d in decoders for b in images]


def choi_fidelity(logical):
    """<Phi|(1 x A)(|Phi><Phi|)|Phi> for the maximally entangled |Phi> and
    the channel with Kraus operators ``logical``, and the channel's
    trace-preservation defect max |sum A^+ A - I|."""
    dim = logical[0].shape[0]
    phi = np.eye(dim).reshape(-1) / np.sqrt(dim)
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in logical:
        vec = np.kron(np.eye(dim), a) @ phi
        rho += np.outer(vec, vec.conj())
    defect = np.abs(sum(a.conj().T @ a for a in logical) - np.eye(dim)).max()
    return float(np.real(phi @ rho @ phi)), float(defect)


def test_loss_kraus_identity_at_zero():
    ops = dense_loss_kraus(0.0, 40)
    assert np.array_equal(ops[0], np.eye(40))
    assert not any(np.any(e) for e in ops[1:])


def test_loss_kraus_acts_as_attenuation():
    # E_l |alpha> has squared norm e^{-g|a|^2}(g|a|^2)^l / l! and points
    # along |sqrt(1-gamma) alpha>.
    gamma, alpha = 0.15, 1.7 - 0.4j
    st = coherent_fock([alpha], 40)
    attenuated = coherent_fock([np.sqrt(1 - gamma) * alpha], 40)
    g_abs2 = gamma * abs(alpha) ** 2
    for l, e in enumerate(dense_loss_kraus(gamma, 40, l_max=4)):
        out = e @ st
        expected_norm2 = np.exp(-g_abs2) * g_abs2**l / math.factorial(l)
        assert np.vdot(out, out).real == pytest.approx(expected_norm2, abs=1e-9)
        overlap = abs(np.vdot(attenuated, out))
        assert overlap == pytest.approx(np.sqrt(expected_norm2), abs=1e-9)


def test_loss_kraus_auto_completeness():
    # Every loss order the cutoff allows: complete on the whole space.
    s = sum(e.T @ e for e in dense_loss_kraus(0.1, 40))
    assert np.abs(s - np.eye(40)).max() < 1e-12


def test_noiseless_round_trip(cat2_unit):
    v = code_basis(cat2_unit, 2.0, 40)
    composed = sum(petz_logical_kraus(v, dense_loss_kraus(0.0, 40)))
    assert np.abs(composed - np.eye(2)).max() < 1e-10


def test_recovery_is_trace_preserving(cat2_unit):
    v = code_basis(cat2_unit, 2.0, 40)
    _, defect = choi_fidelity(petz_logical_kraus(v, dense_loss_kraus(0.08, 40)))
    assert defect < 1e-10


def test_transpose_beats_projector_decoding(cat2_unit):
    v = code_basis(cat2_unit, 2.0, 40)
    projector = sum(abs(np.trace(v.conj().T @ k @ v)) ** 2 for k in dense_loss_kraus(0.05, 40)) / 4
    assert loss_fidelity(cat2_unit, 0.05, 2.0).fidelity >= projector


def test_fidelity_is_one_without_loss(cat2_unit):
    v = code_basis(cat2_unit, 2.0, 40)
    fid, _ = choi_fidelity(petz_logical_kraus(v, dense_loss_kraus(0.0, 40)))
    assert fid == pytest.approx(1.0, abs=1e-12)


def oracle_fidelity(code, gamma, scale, cutoff, l_max=None):
    """The Choi fidelity of transpose recovery built from dense matrices,
    after checking that the composite channel is trace preserving."""
    v = code_basis(code, scale, cutoff)
    kraus = dense_loss_kraus(gamma, cutoff, code.modes, l_max)
    fid, defect = choi_fidelity(petz_logical_kraus(v, kraus))
    assert defect < 1e-10
    return fid


def test_fidelity_matches_choi_oracle(cat2_unit):
    gamma, scale = 0.08, 1.8
    want = oracle_fidelity(cat2_unit, gamma, scale, 40)
    assert loss_fidelity(cat2_unit, gamma, scale).fidelity == pytest.approx(want, abs=1e-10)


def test_fidelity_two_mode_structured_path_matches_dense():
    # The engine's structured evaluation against dense matrices on two
    # modes; at cutoff 14 the per-mode tail is below 1e-12, and at most six
    # photons lost per mode leaves out a weight of about 1e-13.
    code, _ = normalize_energy(build_catalog_code("cell16_qutrit"), 1.0)
    gamma, scale = 0.06, 0.9
    want = oracle_fidelity(code, gamma, scale, 14, l_max=6)
    assert loss_fidelity(code, gamma, scale).fidelity == pytest.approx(want, abs=1e-9)


def test_fidelity_bounded(cat2_unit, rng):
    for _ in range(5):
        g = float(rng.uniform(0.0, 0.25))
        s = float(rng.uniform(1.0, 2.6))
        assert 0.0 <= oracle_fidelity(cat2_unit, g, s, 40) <= 1.0 + 1e-9


def test_truncation_robustness(cat2_unit):
    f40 = oracle_fidelity(cat2_unit, 0.1, 2.0, 40)
    f48 = oracle_fidelity(cat2_unit, 0.1, 2.0, 48)
    assert abs(f40 - f48) < 1e-6
