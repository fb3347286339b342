import ast
import math
from pathlib import Path

import numpy as np
import pytest

from cohdist import coherence
from cohdist.coherence import (
    coa_closed_form,
    coa_numeric,
    qi_relative_entropy,
    rel_entropy_coherence,
)
from cohdist.qcore import InvalidStateError, partial_trace, projector
from cohdist.states import family1, family2, make_werner, singlet

import oracles
from sampling import random_density, random_pure_state


# --- rel_entropy_coherence ---------------------------------------------------

def test_cr_maximally_coherent_qubit():
    assert rel_entropy_coherence(projector(oracles.KET_X_PLUS)).c_r == pytest.approx(1.0, abs=1e-12)


def test_cr_diagonal_states_vanish():
    rng = np.random.default_rng(21)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(2))
        assert rel_entropy_coherence(np.diag(probs).astype(complex)).c_r == pytest.approx(0.0, abs=1e-12)


def test_cr_collapsed_werner_state():
    # 0.5 |y-><y-| + 0.25 I has C_r = 1 - H2(0.75)
    rho = 0.5 * projector(oracles.KET_Y_MINUS) + 0.25 * np.eye(2)
    expected = 1.0 - oracles.h2(0.75)
    assert expected == pytest.approx(0.18872187554086717, abs=1e-12)
    assert rel_entropy_coherence(rho).c_r == pytest.approx(expected, abs=1e-12)


def test_cr_report_consistency():
    rng = np.random.default_rng(22)
    for dim in (2, 4):
        for _ in range(50):
            rep = rel_entropy_coherence(random_density(rng, dim))
            assert rep.c_r == pytest.approx(rep.entropy_dephased - rep.entropy_state, abs=1e-14)
            assert rep.c_r >= -1e-12
            assert rep.c_r <= math.log2(dim) + 1e-12


def test_cr_rejects_invalid_state():
    with pytest.raises(InvalidStateError):
        rel_entropy_coherence(np.diag([1.3, -0.3]))


def test_cr_mixing_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(m))
        parts = [random_density(rng, 2) for _ in range(m)]
        avg = sum(w * rel_entropy_coherence(r).c_r for w, r in zip(weights, parts))
        mixed = sum(w * r for w, r in zip(weights, parts))
        assert avg >= rel_entropy_coherence(mixed).c_r - 1e-12


# --- qi_relative_entropy -----------------------------------------------------

def test_qi_singlet():
    assert qi_relative_entropy(projector(singlet())) == pytest.approx(1.0, abs=1e-12)


def test_qi_vanishes_on_quantum_incoherent_states():
    rng = np.random.default_rng(24)
    for _ in range(20):
        q = float(rng.uniform())
        sigma = random_density(rng, 2)
        tau = random_density(rng, 2)
        rho = q * np.kron(sigma, projector(oracles.KET_H)) + (1 - q) * np.kron(tau, projector(oracles.KET_V))
        assert qi_relative_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_qi_werner_closed_form_on_grid():
    for p in np.linspace(0.0, 0.95, 19):
        assert qi_relative_entropy(make_werner(p)) == pytest.approx(oracles.werner_qi_bound(p), abs=1e-9)
    assert qi_relative_entropy(make_werner(0.5)) == pytest.approx(0.2624831837637344, abs=1e-9)


def test_qi_dominates_bob_marginal_coherence():
    rng = np.random.default_rng(25)
    for _ in range(500):
        rho = random_density(rng, 4)
        assert qi_relative_entropy(rho) >= rel_entropy_coherence(partial_trace(rho, "B")).c_r - 1e-12


def test_qi_rejects_qubit():
    with pytest.raises(InvalidStateError):
        qi_relative_entropy(np.eye(2) / 2)


# --- coherence of assistance -------------------------------------------------

def test_coa_closed_form_examples():
    assert coa_closed_form(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert coa_closed_form(projector(oracles.KET_H)) == pytest.approx(0.0, abs=1e-12)
    rho_b = partial_trace(projector(family1(10.0)), "B")
    expected = oracles.h2(math.cos(math.radians(20.0)) ** 2)
    assert expected == pytest.approx(0.5206107318548253, abs=1e-12)
    assert coa_closed_form(rho_b) == pytest.approx(expected, abs=1e-12)


def test_coa_closed_form_rejects_two_qubit_state():
    with pytest.raises(InvalidStateError):
        coa_closed_form(np.eye(4) / 4)


def test_coa_numeric_family1_bell_point():
    res = coa_numeric(family1(22.5), grid_res=32, refine_iters=20)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert abs(res.argmax_basis.bloch[2]) < 1e-6  # equatorial


def test_coa_numeric_product_state():
    res = coa_numeric(family1(0.0), grid_res=16, refine_iters=5)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_coa_numeric_family2_is_unit():
    for theta in (0.0, 7.5, 22.5, 40.0):
        res = coa_numeric(family2(theta), grid_res=32, refine_iters=20)
        assert res.value == pytest.approx(1.0, abs=1e-6)


def test_coa_numeric_matches_closed_form_on_random_pures():
    rng = np.random.default_rng(20240811)
    for _ in range(50):
        psi = random_pure_state(rng, 4)
        res = coa_numeric(psi, grid_res=16, refine_iters=24)
        closed = coa_closed_form(partial_trace(projector(psi), "B"))
        assert abs(res.value - closed) <= 1e-4


def test_coa_numeric_trace_invariant():
    res = coa_numeric(family2(17.5), grid_res=16, refine_iters=10)
    assert res.value >= max(v for _, v in res.optimizer_trace) - 1e-12
    assert res.optimizer_trace  # search path is recorded


def test_coa_numeric_input_errors():
    with pytest.raises(InvalidStateError):
        coa_numeric(np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized
    with pytest.raises(ValueError):
        coa_numeric(family1(10.0), grid_res=4)


def test_coherence_has_no_function_level_imports():
    tree = ast.parse(Path(coherence.__file__).read_text())
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    nested = [n.lineno for f in functions for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert nested == []
