import math

import numpy as np
import pytest

from cubacode import (
    CutoffError,
    FockSpace,
    ValidationError,
    build_catalog_code,
    cat_code,
    coherent_fock,
    coherent_overlap,
    encode,
    loss_fidelity,
    normalize_energy,
)
from cubacode.fock import dim_budget


@pytest.fixture(scope="module")
def space40():
    return FockSpace(1, 40)


@pytest.fixture(scope="module")
def cat2_unit():
    code, _ = normalize_energy(cat_code(2, 2), 1.0)
    return code


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def test_vacuum_state(space40):
    st = coherent_fock([0.0], space40)
    expected = np.zeros(40)
    expected[0] = 1.0
    assert np.allclose(st.amplitudes, expected)
    assert st.tail_mass == 0.0


def test_coherent_norm_at_adequate_cutoff(space40):
    st = coherent_fock([2.0], space40)
    assert abs(st.norm() - 1.0) < 1e-12
    assert not st.truncation_warning


def test_coherent_truncation_warning():
    st = coherent_fock([3.0], FockSpace(1, 8))
    assert st.truncation_warning
    assert st.tail_mass > 1e-6


def test_fock_overlap_matches_closed_form(space40, rng):
    for _ in range(10):
        a = rng.normal(size=1) + 1j * rng.normal(size=1)
        b = rng.normal(size=1) + 1j * rng.normal(size=1)
        fa = coherent_fock(a, space40).amplitudes
        fb = coherent_fock(b, space40).amplitudes
        assert np.vdot(fa, fb) == pytest.approx(coherent_overlap(a, b), abs=1e-10)


def test_two_mode_coherent_state():
    space = FockSpace(2, 12)
    st = coherent_fock([0.5, -0.3j], space)
    assert abs(st.norm() - 1.0) < 1e-12
    tens = st.amplitudes.reshape(12, 12)
    a0 = coherent_fock([0.5], FockSpace(1, 12)).amplitudes
    a1 = coherent_fock([-0.3j], FockSpace(1, 12)).amplitudes
    assert np.allclose(tens, np.outer(a0, a1))


def test_space_budget_enforced():
    with pytest.raises(ValidationError, match="budget"):
        FockSpace(3, 40)


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0", "-3"])
def test_malformed_budget_is_rejected(value, monkeypatch):
    monkeypatch.setenv("CUBACODE_DIM_BUDGET", value)
    with pytest.raises(ValidationError, match="CUBACODE_DIM_BUDGET"):
        FockSpace(1, 8)


def test_budget_from_environment(monkeypatch):
    monkeypatch.setenv("CUBACODE_DIM_BUDGET", "64")
    assert dim_budget() == 64
    FockSpace(2, 8)
    with pytest.raises(ValidationError, match="budget 64"):
        FockSpace(2, 9)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_encode_is_isometry(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40)
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-10
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)


def test_encode_raw_overlap_matches_four_term_sum(space40):
    code = cat_code(2, 2)
    scale = 2.0
    raw = np.zeros((40, 2), dtype=complex)
    for k, c in enumerate(code.logicals):
        for w, pt in zip(c.weights, c.points):
            raw[:, k] += np.sqrt(w) * coherent_fock(scale * pt, space40).amplitudes
    analytic = sum(
        0.5 * coherent_overlap([a], [b]) for a in (2.0, -2.0) for b in (2.0j, -2.0j)
    )
    assert np.vdot(raw[:, 0], raw[:, 1]) == pytest.approx(analytic, abs=1e-10)


def test_encode_rejects_overflowing_scale(cat2_unit):
    with pytest.raises(CutoffError, match="tail"):
        encode(cat2_unit, 5.0, FockSpace(1, 16))


# ---------------------------------------------------------------------------
# Loss channel and transpose recovery from explicit matrices
# ---------------------------------------------------------------------------


def dense_loss_kraus(gamma, space, l_max=None):
    """Pure-loss Kraus operators on ``space`` losing at most ``l_max`` photons
    per mode (by default every loss order the cutoff allows), as dense
    matrices: E_l|m> = sqrt(C(m, l) gamma^l (1-gamma)^(m-l)) |m-l> on each
    mode, and their tensor products."""
    n = space.cutoff
    singles = []
    for l in range(n if l_max is None else l_max + 1):
        e = np.zeros((n, n))
        for m in range(l, n):
            e[m - l, m] = np.sqrt(math.comb(m, l) * gamma**l * (1 - gamma) ** (m - l))
        singles.append(e)
    ops = singles
    for _ in range(space.modes - 1):
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


def test_loss_kraus_identity_at_zero(space40):
    ops = dense_loss_kraus(0.0, space40)
    assert np.array_equal(ops[0], np.eye(40))
    assert not any(np.any(e) for e in ops[1:])


def test_loss_kraus_acts_as_attenuation(space40):
    # E_l |alpha> has squared norm e^{-g|a|^2}(g|a|^2)^l / l! and points
    # along |sqrt(1-gamma) alpha>.
    gamma, alpha = 0.15, 1.7 - 0.4j
    st = coherent_fock([alpha], space40).amplitudes
    attenuated = coherent_fock([np.sqrt(1 - gamma) * alpha], space40).amplitudes
    g_abs2 = gamma * abs(alpha) ** 2
    for l, e in enumerate(dense_loss_kraus(gamma, space40, l_max=4)):
        out = e @ st
        expected_norm2 = np.exp(-g_abs2) * g_abs2**l / math.factorial(l)
        assert np.vdot(out, out).real == pytest.approx(expected_norm2, abs=1e-9)
        overlap = abs(np.vdot(attenuated, out))
        assert overlap == pytest.approx(np.sqrt(expected_norm2), abs=1e-9)


def test_loss_kraus_auto_completeness(space40):
    # Every loss order the cutoff allows: complete on the whole space.
    s = sum(e.T @ e for e in dense_loss_kraus(0.1, space40))
    assert np.abs(s - np.eye(40)).max() < 1e-12


def test_noiseless_round_trip(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40)
    composed = sum(petz_logical_kraus(v, dense_loss_kraus(0.0, space40)))
    assert np.abs(composed - np.eye(2)).max() < 1e-10


def test_recovery_is_trace_preserving(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40)
    _, defect = choi_fidelity(petz_logical_kraus(v, dense_loss_kraus(0.08, space40)))
    assert defect < 1e-10


def test_transpose_beats_projector_decoding(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40)
    projector = sum(abs(np.trace(v.conj().T @ k @ v)) ** 2 for k in dense_loss_kraus(0.05, space40)) / 4
    assert loss_fidelity(cat2_unit, 0.05, 2.0).fidelity >= projector


def test_fidelity_is_one_without_loss(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40)
    fid, _ = choi_fidelity(petz_logical_kraus(v, dense_loss_kraus(0.0, space40)))
    assert fid == pytest.approx(1.0, abs=1e-12)


def oracle_fidelity(code, gamma, scale, space, l_max=None):
    """The Choi fidelity of transpose recovery built from dense matrices,
    after checking that the composite channel is trace preserving."""
    v = encode(code, scale, space)
    fid, defect = choi_fidelity(petz_logical_kraus(v, dense_loss_kraus(gamma, space, l_max)))
    assert defect < 1e-10
    return fid


def test_fidelity_matches_choi_oracle(space40, cat2_unit):
    gamma, scale = 0.08, 1.8
    want = oracle_fidelity(cat2_unit, gamma, scale, space40)
    assert loss_fidelity(cat2_unit, gamma, scale).fidelity == pytest.approx(want, abs=1e-10)


def test_fidelity_two_mode_structured_path_matches_dense():
    # The engine's structured evaluation against dense matrices on two
    # modes; at cutoff 14 the per-mode tail is below 1e-12, and at most six
    # photons lost per mode leaves out a weight of about 1e-13.
    code, _ = normalize_energy(build_catalog_code("cell16_qutrit"), 1.0)
    gamma, scale = 0.06, 0.9
    want = oracle_fidelity(code, gamma, scale, FockSpace(2, 14), l_max=6)
    assert loss_fidelity(code, gamma, scale).fidelity == pytest.approx(want, abs=1e-9)


def test_fidelity_bounded(space40, cat2_unit, rng):
    for _ in range(5):
        g = float(rng.uniform(0.0, 0.25))
        s = float(rng.uniform(1.0, 2.6))
        assert 0.0 <= oracle_fidelity(cat2_unit, g, s, space40) <= 1.0 + 1e-9


def test_truncation_robustness(cat2_unit):
    f40 = oracle_fidelity(cat2_unit, 0.1, 2.0, FockSpace(1, 40))
    f48 = oracle_fidelity(cat2_unit, 0.1, 2.0, FockSpace(1, 48))
    assert abs(f40 - f48) < 1e-6
