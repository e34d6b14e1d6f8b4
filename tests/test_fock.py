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
    entanglement_fidelity,
    fidelity_details,
    loss_kraus,
    normalize_energy,
    transpose_recovery,
)
from cubacode.fock import annihilation, auto_loss_l_max, single_mode_loss_kraus


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


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_encode_is_isometry(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40).matrix
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
# Loss channel
# ---------------------------------------------------------------------------


def test_loss_kraus_identity_at_zero(space40):
    ch = loss_kraus(0.0, space40)
    assert len(ch.operators) == 1
    assert np.allclose(ch.operators[0].matrix, np.eye(40))
    assert ch.completeness_deficiency == 0.0


def test_loss_kraus_rejects_bad_gamma(space40):
    with pytest.raises(ValidationError):
        loss_kraus(1.0, space40)
    with pytest.raises(ValidationError):
        loss_kraus(-0.1, space40)


def test_loss_kraus_acts_as_attenuation(space40):
    # E_l |alpha> has squared norm e^{-g|a|^2}(g|a|^2)^l / l! and points
    # along |sqrt(1-gamma) alpha>.
    gamma, alpha = 0.15, 1.7 - 0.4j
    st = coherent_fock([alpha], space40).amplitudes
    attenuated = coherent_fock([np.sqrt(1 - gamma) * alpha], space40).amplitudes
    g_abs2 = gamma * abs(alpha) ** 2
    for l, e in enumerate(single_mode_loss_kraus(gamma, 40, 4)):
        out = e @ st
        expected_norm2 = np.exp(-g_abs2) * g_abs2**l / math.factorial(l)
        assert np.vdot(out, out).real == pytest.approx(expected_norm2, abs=1e-9)
        overlap = abs(np.vdot(attenuated, out))
        assert overlap == pytest.approx(np.sqrt(expected_norm2), abs=1e-9)


def test_loss_kraus_auto_completeness(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40).matrix
    ch = loss_kraus(0.1, space40, reference=v)
    assert ch.completeness_deficiency < 1e-10
    s = sum(m.conj().T @ m for m in ch.iter_matrices())
    occupied = np.arange(20)  # levels holding the codewords
    assert np.abs((s - np.eye(40))[np.ix_(occupied, occupied)]).max() < 1e-10


def test_loss_kraus_explicit_lmax_can_fail():
    with pytest.raises(CutoffError, match="deficiency"):
        loss_kraus(0.3, FockSpace(1, 30), l_max=1)


# ---------------------------------------------------------------------------
# Recovery and fidelity
# ---------------------------------------------------------------------------


def test_noiseless_round_trip(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40)
    ch = loss_kraus(0.0, space40)
    rec = transpose_recovery(v, ch)
    assert rec.completeness_deficiency < 1e-10
    composed = sum(
        v.matrix.conj().T @ r @ k @ v.matrix
        for r in rec.iter_matrices(include_completion=False)
        for k in ch.iter_matrices()
    )
    assert np.abs(composed - np.eye(2)).max() < 1e-10


def test_recovery_is_trace_preserving(space40, cat2_unit):
    v = encode(cat2_unit, 2.0, space40)
    ch = loss_kraus(0.08, space40, reference=v.matrix)
    rec = transpose_recovery(v, ch)
    assert rec.completeness_deficiency < 1e-10
    total = sum(m.conj().T @ m for m in rec.iter_matrices())
    assert np.abs(total - np.eye(40)).max() < 1e-9


def test_transpose_beats_projector_decoding(space40, cat2_unit):
    ft = entanglement_fidelity(cat2_unit, 0.05, 2.0, space40, recovery="transpose")
    fp = entanglement_fidelity(cat2_unit, 0.05, 2.0, space40, recovery="projector")
    assert ft >= fp


def test_fidelity_is_one_without_loss(space40, cat2_unit):
    assert entanglement_fidelity(cat2_unit, 0.0, 2.0, space40) == pytest.approx(1.0, abs=1e-8)


def test_fidelity_matches_choi_oracle(space40, cat2_unit):
    gamma, scale = 0.08, 1.8
    v = encode(cat2_unit, scale, space40)
    ch = loss_kraus(gamma, space40, reference=v.matrix)
    rec = transpose_recovery(v, ch)
    logical = []
    for r in rec.iter_matrices(include_completion=False):
        for k in ch.iter_matrices():
            logical.append(v.matrix.conj().T @ r @ k @ v.matrix)
    target, basis = rec.completion
    for i in range(basis.shape[1]):
        w = np.outer(target, basis[:, i].conj())
        for k in ch.iter_matrices():
            logical.append(v.matrix.conj().T @ w @ k @ v.matrix)
    dim = 2
    phi = np.zeros(dim * dim, dtype=complex)
    for m in range(dim):
        phi[m * dim + m] = 1 / np.sqrt(dim)
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in logical:
        vec = np.kron(np.eye(dim), a) @ phi
        rho += np.outer(vec, vec.conj())
    choi_fidelity = float(np.real(phi.conj() @ rho @ phi))
    tp_defect = np.abs(sum(a.conj().T @ a for a in logical) - np.eye(dim)).max()
    assert tp_defect < 1e-10
    assert entanglement_fidelity(cat2_unit, gamma, scale, space40) == pytest.approx(
        choi_fidelity, abs=1e-10
    )


def test_fidelity_two_mode_structured_path_matches_dense():
    # Small two-mode space: compare the factored evaluation against a fully
    # materialized channel composition.
    space = FockSpace(2, 12)
    code, _ = normalize_energy(build_catalog_code("cell16_qutrit"), 1.0)
    gamma, scale = 0.06, 0.9
    fast = entanglement_fidelity(code, gamma, scale, space)
    v = encode(code, scale, space)
    ch = loss_kraus(gamma, space, reference=v.matrix)
    rec = transpose_recovery(v, ch)
    total = 0.0
    for r in rec.iter_matrices(include_completion=False):
        for k in ch.iter_matrices():
            total += abs(np.trace(v.matrix.conj().T @ r @ k @ v.matrix)) ** 2
    target, basis = rec.completion
    for k in ch.iter_matrices():
        col = k @ v.matrix[:, 0]
        proj = basis @ (basis.conj().T @ col)
        total += np.linalg.norm(v.matrix.conj().T @ target) ** 2 * 0  # target is a codeword
        total += float(np.vdot(proj, proj).real)
    dense = total / code.dim**2
    assert fast == pytest.approx(dense, abs=1e-9)


def test_fidelity_bounded(space40, cat2_unit, rng):
    for _ in range(5):
        g = float(rng.uniform(0.0, 0.25))
        s = float(rng.uniform(1.0, 2.6))
        f = fidelity_details(cat2_unit, g, s, space40)
        assert 0.0 <= f.fidelity <= 1.0 + 1e-9


def test_truncation_robustness(cat2_unit):
    f40 = entanglement_fidelity(cat2_unit, 0.1, 2.0, FockSpace(1, 40))
    f48 = entanglement_fidelity(cat2_unit, 0.1, 2.0, FockSpace(1, 48))
    assert abs(f40 - f48) < 1e-6


def test_auto_lmax_zero_without_loss(space40):
    assert auto_loss_l_max(0.0, space40) == 0
