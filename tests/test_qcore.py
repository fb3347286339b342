import numpy as np
import pytest

from cohdist import qcore
from cohdist.qcore import (
    InvalidStateError,
    dephase,
    fidelity,
    negativity,
    partial_trace,
    projector,
    tensor_product,
    validate_density,
    von_neumann_entropy,
)
from cohdist.states import family1, make_werner, singlet

import oracles
from sampling import random_density, random_pure_state

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


# --- tensor_product ---------------------------------------------------------

def test_tensor_identity_case():
    assert np.allclose(tensor_product(I2 / 2, I2 / 2), I4 / 4)


def test_tensor_basis_projectors():
    hv = np.zeros((4, 4), dtype=complex)
    hv[1, 1] = 1.0  # |HV><HV| with Alice as the slow index
    assert np.allclose(tensor_product(projector(qcore.KET_H), projector(qcore.KET_V)), hv)


def test_tensor_matches_index_formula():
    a = oracles.bloch_rho(1.0, 0.0, 0.0)
    b = oracles.bloch_rho(0.0, 0.0, 1.0)
    assert np.max(np.abs(tensor_product(a, b) - oracles.kron_oracle(a, b))) < 1e-15


def test_tensor_rejects_wrong_dim():
    with pytest.raises(InvalidStateError):
        tensor_product(I4 / 4, I2 / 2)


# --- partial_trace ----------------------------------------------------------

def test_partial_trace_singlet_is_maximally_mixed():
    assert np.allclose(partial_trace(projector(singlet()), "B"), I2 / 2, atol=1e-12)


def test_partial_trace_family1_15deg():
    rho_b = partial_trace(projector(family1(15.0)), "B")
    assert np.allclose(rho_b, np.diag([0.75, 0.25]), atol=1e-12)


def test_partial_trace_recovers_tensor_factors():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        ab = tensor_product(a, b)
        assert np.max(np.abs(partial_trace(ab, "A") - a)) <= 1e-12
        assert np.max(np.abs(partial_trace(ab, "B") - b)) <= 1e-12


def test_partial_trace_rejects_qubit():
    with pytest.raises(InvalidStateError):
        partial_trace(I2 / 2, "B")
    with pytest.raises(ValueError):
        partial_trace(I4 / 4, "C")


# --- dephase ----------------------------------------------------------------

def test_dephase_x_plus_gives_maximally_mixed():
    assert np.allclose(dephase(projector(qcore.KET_X_PLUS)), I2 / 2)


def test_dephase_b_of_singlet():
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    assert np.allclose(dephase(projector(singlet()), scope="B"), expected, atol=1e-12)


def test_dephase_b_keeps_alice_coherences():
    rho = tensor_product(projector(qcore.KET_X_PLUS), projector(qcore.KET_H))
    out = dephase(rho, scope="B")
    assert abs(out[0, 2] - 0.5) < 1e-12  # <HH| . |VH> coherence survives


def test_dephase_diagonal_fixed_point():
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.allclose(dephase(rho), rho)


def test_dephase_idempotent_and_trace_preserving():
    rng = np.random.default_rng(12)
    for dim in (2, 4):
        for _ in range(50):
            rho = random_density(rng, dim)
            scopes = ("full", "B") if dim == 4 else ("full",)
            for scope in scopes:
                out = dephase(rho, scope=scope)
                assert abs(out.trace() - 1.0) < 1e-12
                assert np.allclose(dephase(out, scope=scope), out, atol=1e-14)


def test_dephase_scope_errors():
    with pytest.raises(ValueError):
        dephase(I2 / 2, scope="B")
    with pytest.raises(ValueError):
        dephase(I2 / 2, scope="bogus")


# --- von_neumann_entropy ----------------------------------------------------

def test_entropy_maximally_mixed():
    assert von_neumann_entropy(I2 / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(I4 / 4) == pytest.approx(2.0, abs=1e-12)


def test_entropy_pure_states():
    rng = np.random.default_rng(13)
    for dim in (2, 4):
        for _ in range(20):
            assert von_neumann_entropy(projector(random_pure_state(rng, dim))) <= 1e-9


def test_entropy_werner_half():
    # eigenvalues (0.625, 0.125 x3) evaluated directly
    expected = oracles.shannon([0.625, 0.125, 0.125, 0.125])
    assert expected == pytest.approx(1.5487949406953985, abs=1e-12)
    assert von_neumann_entropy(make_werner(0.5)) == pytest.approx(expected, abs=1e-12)


def test_entropy_rejects_negative_eigenvalue():
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.diag([1.01, -0.01]).astype(complex))


def test_dephasing_never_decreases_entropy():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        rho = random_density(rng, 2 if rng.integers(2) else 4)
        assert von_neumann_entropy(dephase(rho)) >= von_neumann_entropy(rho) - 1e-12


# --- validate_density -------------------------------------------------------

def test_validate_good_state():
    report = validate_density(I2 / 2)
    assert report.ok
    assert report.hermiticity_defect == 0.0
    assert report.trace_defect == 0.0
    assert report.min_eigenvalue == pytest.approx(0.5)


def test_validate_trace_defect():
    report = validate_density(np.diag([0.49, 0.49]).astype(complex))
    assert report.trace_defect == pytest.approx(0.02, abs=1e-12)
    assert not report.ok


def test_validate_negative_eigenvalue():
    report = validate_density(np.diag([1.01, -0.01]).astype(complex))
    assert report.min_eigenvalue == pytest.approx(-0.01, abs=1e-12)
    assert not report.ok


def test_validate_never_raises():
    assert not validate_density(np.zeros((3, 3))).ok
    assert not validate_density(np.array([[1.0, 1.0], [0.0, 0.0]])).ok


# --- negativity -------------------------------------------------------------

def test_negativity_singlet():
    assert negativity(make_werner(1.0)) == pytest.approx(0.5, abs=1e-10)


def test_negativity_boundary():
    assert negativity(make_werner(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-10)


def test_negativity_product_states():
    rng = np.random.default_rng(15)
    for _ in range(20):
        ab = tensor_product(random_density(rng, 2), random_density(rng, 2))
        assert negativity(ab) <= 1e-12


def test_negativity_werner_closed_form():
    for p in np.linspace(0.0, 1.0, 50):
        assert negativity(make_werner(p)) == pytest.approx(oracles.werner_negativity(p), abs=1e-10)


def test_negativity_rejects_qubit():
    with pytest.raises(InvalidStateError):
        negativity(I2 / 2)


# --- fidelity ---------------------------------------------------------------

def test_fidelity_self():
    rng = np.random.default_rng(16)
    for _ in range(10):
        rho = random_density(rng, 2)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pures():
    assert fidelity(projector(qcore.KET_H), projector(qcore.KET_V)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_h_vs_mixed():
    assert fidelity(projector(qcore.KET_H), I2 / 2) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_pure_reference_reduces_to_overlap():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density(rng, 2)
        psi = random_pure_state(rng, 2)
        expected = float(np.vdot(psi, rho @ psi).real)
        assert fidelity(rho, projector(psi)) == pytest.approx(expected, abs=1e-8)


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        fidelity(I2 / 2, I4 / 4)
