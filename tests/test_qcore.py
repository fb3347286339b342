import math

import numpy as np
import pytest

from cohdist import qcore
from cohdist.coherence import qi_relative_entropy, rel_entropy_coherence
from cohdist.protocol import MeasurementBasis, alice_measure, optimize_basis
from cohdist.qcore import (
    InvalidStateError,
    ValidationReport,
    fidelity,
    negativity,
    partial_trace,
    projector,
    validate_density,
    von_neumann_entropy,
)
from cohdist.states import family1, make_werner, singlet

import oracles
from sampling import random_density, random_pure_state

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


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
        ab = np.kron(a, b)
        assert np.max(np.abs(partial_trace(ab, "A") - a)) <= 1e-12
        assert np.max(np.abs(partial_trace(ab, "B") - b)) <= 1e-12


def test_partial_trace_rejects_qubit():
    with pytest.raises(InvalidStateError):
        partial_trace(I2 / 2, "B")
    with pytest.raises(ValueError):
        partial_trace(I4 / 4, "C")


# --- Bob's dephasing: qcore.BOB_DIAGONAL, the mask qi_bound applies ----------

def test_dephase_b_of_singlet():
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    assert np.allclose(projector(singlet()) * qcore.BOB_DIAGONAL, expected, atol=1e-12)


def test_dephase_b_keeps_alice_coherences():
    rho = np.kron(projector(oracles.KET_X_PLUS), projector(oracles.KET_H))
    out = rho * qcore.BOB_DIAGONAL
    assert abs(out[0, 2] - 0.5) < 1e-12  # <HH| . |VH> coherence survives


def test_dephase_idempotent_and_trace_preserving():
    rng = np.random.default_rng(12)
    for _ in range(50):
        out = random_density(rng, 4) * qcore.BOB_DIAGONAL
        assert abs(out.trace() - 1.0) < 1e-12
        assert np.allclose(out * qcore.BOB_DIAGONAL, out, atol=1e-14)


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


def test_entropy_follows_the_density_tolerance_policy():
    # the same checks as ensure_density: hermiticity to HERMITICITY_TOL, 2x2 or 4x4 only
    skew = I2 / 2 + np.array([[0.0, 1e-9], [0.0, 0.0]])
    assert validate_density(skew).hermiticity_defect == pytest.approx(1e-9)
    for bad in (skew, np.eye(3, dtype=complex) / 3):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(bad)


def test_bloch_vector_inverts_bloch_state():
    rng = np.random.default_rng(15)
    rhos = np.stack([random_density(rng, 2) for _ in range(20)])
    r = qcore.bloch_vector(rhos)
    assert r.shape == (20, 3)
    assert np.allclose(np.stack([qcore.bloch_state(v) for v in r]), rhos, atol=1e-15)
    assert np.array_equal(qcore.bloch_vector(rhos[3]), r[3])


def test_projector_broadcasts_over_a_stack():
    rng = np.random.default_rng(16)
    psis = np.stack([random_pure_state(rng, 4) for _ in range(5)])
    assert np.array_equal(projector(psis), np.stack([np.outer(p, p.conj()) for p in psis]))


def test_dephasing_never_decreases_entropy():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        rho = random_density(rng, 2 if rng.integers(2) else 4)
        assert von_neumann_entropy(np.diag(np.diag(rho))) >= von_neumann_entropy(rho) - 1e-12


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
    for bad in ("x", [[0.5, "a"], [0.0, 0.5]], [[0.5, 0.0], [0.0]], object(), 10**400):  # not arrays of numbers
        assert validate_density(bad) == ValidationReport(math.inf, math.inf, -math.inf, False)


_NON_FINITE_ENTRY_POINTS = {
    "ensure_density": qcore.ensure_density,
    "optimize_basis": lambda rho: optimize_basis(rho, grid_res=8, refine_iters=0),
    "alice_measure": lambda rho: alice_measure(rho, MeasurementBasis((0.0, 1.0, 0.0))),
    "qi_relative_entropy": qi_relative_entropy,
    "negativity": negativity,
    "rel_entropy_coherence": rel_entropy_coherence,
}


@pytest.mark.parametrize("entry", ["validate_density", *_NON_FINITE_ENTRY_POINTS])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf, "x"], ids=["nan", "inf", "text"])
def test_non_finite_matrices_are_invalid_states(bad, dim, entry):
    rho = (np.eye(dim, dtype=complex) / dim).tolist()  # a nested list, so an entry may be text
    rho[0][dim - 1] = rho[dim - 1][0] = bad
    if entry == "validate_density":
        assert not validate_density(rho).ok  # reporting only: it never raises
    else:
        with pytest.raises(InvalidStateError):
            _NON_FINITE_ENTRY_POINTS[entry](rho)


# --- negativity -------------------------------------------------------------

def test_negativity_singlet():
    assert negativity(make_werner(1.0)) == pytest.approx(0.5, abs=1e-10)


def test_negativity_boundary():
    assert negativity(make_werner(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-10)


def test_negativity_product_states():
    rng = np.random.default_rng(15)
    for _ in range(20):
        ab = np.kron(random_density(rng, 2), random_density(rng, 2))
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
    assert fidelity(projector(oracles.KET_H), projector(oracles.KET_V)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_h_vs_mixed():
    assert fidelity(projector(oracles.KET_H), I2 / 2) == pytest.approx(0.5, abs=1e-12)


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
