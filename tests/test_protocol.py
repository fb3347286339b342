import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cohdist
from cohdist import protocol, qcore
from cohdist.coherence import coa_closed_form, qi_relative_entropy, rel_entropy_coherence
from cohdist.protocol import (
    MeasurementBasis,
    alice_measure,
    average_assisted_coherence,
    optimal_basis_pure,
    optimize_basis,
    y_basis,
)
from cohdist.qcore import partial_trace, projector
from cohdist.states import family1, family2, make_werner, singlet

import oracles
from sampling import random_bloch, random_density, random_pure_state


# --- MeasurementBasis --------------------------------------------------------

def test_basis_kets_orthonormal_and_on_bloch_axis():
    rng = np.random.default_rng(31)
    for _ in range(50):
        basis = MeasurementBasis(random_bloch(rng))
        plus, minus = basis.ket_plus, basis.ket_minus
        assert abs(np.vdot(plus, plus) - 1) < 1e-12
        assert abs(np.vdot(minus, minus) - 1) < 1e-12
        assert abs(np.vdot(plus, minus)) < 1e-10
        assert np.allclose(oracles.bloch_vector(plus), basis.bloch, atol=1e-10)
        assert np.allclose(oracles.bloch_vector(minus), -np.array(basis.bloch), atol=1e-10)


def test_y_basis_kets():
    basis = y_basis()
    assert np.allclose(basis.ket_plus, qcore.KET_Y_PLUS, atol=1e-12)
    # ket_minus may differ from |y-> by a global phase only
    overlap = abs(np.vdot(basis.ket_minus, qcore.KET_Y_MINUS))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_basis_rejects_non_unit_vector():
    with pytest.raises(ValueError):
        MeasurementBasis((0.0, 0.0, 0.9))


# --- alice_measure -----------------------------------------------------------

def test_measure_family1_in_y_basis():
    for theta in (5.0, 15.0, 22.5, 40.0):
        t2 = math.radians(2 * theta)
        outcomes = alice_measure(projector(family1(theta)), y_basis())
        assert outcomes.probs == pytest.approx((0.5, 0.5), abs=1e-12)
        collapsed = {
            "+": np.array([math.cos(t2), -1j * math.sin(t2)]),
            "-": np.array([math.cos(t2), 1j * math.sin(t2)]),
        }
        for o in outcomes:
            assert np.max(np.abs(o.bob_state - projector(collapsed[o.label]))) <= 1e-12


def test_measure_werner_in_y_basis():
    for p in (0.25, 0.5, 0.9):
        outcomes = alice_measure(make_werner(p), y_basis())
        assert outcomes.probs == pytest.approx((0.5, 0.5), abs=1e-12)
        collapsed = {
            "+": p * projector(qcore.KET_Y_MINUS) + (1 - p) * np.eye(2) / 2,
            "-": p * projector(qcore.KET_Y_PLUS) + (1 - p) * np.eye(2) / 2,
        }
        for o in outcomes:
            assert np.max(np.abs(o.bob_state - collapsed[o.label])) <= 1e-12


def test_measure_family1_in_z_basis():
    theta = 15.0
    t2 = math.radians(2 * theta)
    outcomes = alice_measure(projector(family1(theta)), MeasurementBasis((0.0, 0.0, 1.0)))
    assert outcomes.probs == pytest.approx((math.cos(t2) ** 2, math.sin(t2) ** 2), abs=1e-12)
    states = {o.label: o.bob_state for o in outcomes}
    assert np.allclose(states["+"], projector(qcore.KET_H), atol=1e-12)
    assert np.allclose(states["-"], projector(qcore.KET_V), atol=1e-12)


def test_measure_zero_probability_outcome_flagged():
    outcomes = alice_measure(projector(family1(0.0)), MeasurementBasis((0.0, 0.0, 1.0)))
    minus = outcomes.outcomes[1]
    assert minus.zero_prob
    assert minus.prob == 0.0
    assert np.allclose(minus.bob_state, np.eye(2) / 2)


def test_measure_no_signaling_and_normalization():
    rng = np.random.default_rng(32)
    for _ in range(500):
        rho = random_density(rng, 4)
        outcomes = alice_measure(rho, MeasurementBasis(random_bloch(rng)))
        assert sum(outcomes.probs) == pytest.approx(1.0, abs=1e-10)
        avg = sum(o.prob * o.bob_state for o in outcomes)
        assert np.max(np.abs(avg - partial_trace(rho, "B"))) <= 1e-10


def test_measure_antipodal_invariance():
    rng = np.random.default_rng(33)
    for _ in range(50):
        rho = random_density(rng, 4)
        n = np.array(random_bloch(rng))
        a = alice_measure(rho, MeasurementBasis(tuple(n)))
        b = alice_measure(rho, MeasurementBasis(tuple(-n)))
        flipped = {"+": "-", "-": "+"}
        by_label = {o.label: o for o in b}
        for o in a:
            mate = by_label[flipped[o.label]]
            assert o.prob == pytest.approx(mate.prob, abs=1e-12)
            assert np.max(np.abs(o.bob_state - mate.bob_state)) <= 1e-12


def test_alice_measure_matches_dense_map():
    rng = np.random.default_rng(39)
    cases = [(random_density(rng, 4), MeasurementBasis(random_bloch(rng))) for _ in range(200)]
    cases += [(projector(random_pure_state(rng, 4)), MeasurementBasis(random_bloch(rng))) for _ in range(50)]
    product = np.kron(projector(qcore.KET_H), random_density(rng, 2))  # the poles leave one outcome at p = 0
    cases += [(product, MeasurementBasis((0.0, 0.0, z))) for z in (1.0, -1.0)]
    for rho, basis in cases:
        got, want = alice_measure(rho, basis), oracles._measure(rho, basis)
        for o, ref in zip(got, want, strict=True):
            assert (o.label, o.zero_prob) == (ref.label, ref.zero_prob)
            assert abs(o.prob - ref.prob) <= 1e-12
            assert np.max(np.abs(o.bob_state - ref.bob_state)) <= 1e-12
    assert [o.zero_prob for o in alice_measure(product, MeasurementBasis((0.0, 0.0, 1.0)))] == [False, True]
    assert [o.zero_prob for o in alice_measure(product, MeasurementBasis((0.0, 0.0, -1.0)))] == [True, False]


# --- average_assisted_coherence ----------------------------------------------

def test_average_singlet_y_basis_is_unit():
    outcomes = alice_measure(projector(singlet()), y_basis())
    assert average_assisted_coherence(outcomes) == pytest.approx(1.0, abs=1e-12)


def test_average_werner_half():
    outcomes = alice_measure(make_werner(0.5), y_basis())
    assert average_assisted_coherence(outcomes) == pytest.approx(oracles.werner_after(0.5), abs=1e-12)
    assert average_assisted_coherence(outcomes) == pytest.approx(0.18872187554086717, abs=1e-9)


def test_average_family1_z_basis_vanishes():
    outcomes = alice_measure(projector(family1(15.0)), MeasurementBasis((0.0, 0.0, 1.0)))
    assert average_assisted_coherence(outcomes) == pytest.approx(0.0, abs=1e-12)


def test_average_never_below_unmeasured_marginal():
    rng = np.random.default_rng(34)
    for _ in range(100):
        rho = random_density(rng, 4)
        outcomes = alice_measure(rho, MeasurementBasis(random_bloch(rng)))
        before = rel_entropy_coherence(partial_trace(rho, "B")).c_r
        assert average_assisted_coherence(outcomes) >= before - 1e-12


def test_average_bounded_by_qi_relative_entropy():
    rng = np.random.default_rng(35)
    for p in np.linspace(0.1, 1.0, 5):
        rho = make_werner(p)
        bound = qi_relative_entropy(rho)
        for _ in range(50):
            outcomes = alice_measure(rho, MeasurementBasis(random_bloch(rng)))
            assert average_assisted_coherence(outcomes) <= bound + 1e-9


def test_average_werner_phase_flatness():
    rho = make_werner(0.5)
    values = []
    for phi in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
        basis = MeasurementBasis((math.cos(phi), math.sin(phi), 0.0))
        values.append(average_assisted_coherence(alice_measure(rho, basis)))
    assert max(values) - min(values) <= 1e-10


# --- optimal_basis_pure ------------------------------------------------------

def test_optimal_basis_family1_is_y():
    for theta in (2.5, 15.0, 30.0, 42.5):
        assert optimal_basis_pure(family1(theta)).bloch == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_optimal_basis_family2_is_y():
    for theta in (0.0, 10.0, 22.5, 35.0, 45.0):
        assert optimal_basis_pure(family2(theta)).bloch == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_optimal_basis_degenerate_product_state():
    psi = np.kron(qcore.KET_H, qcore.KET_X_PLUS)
    assert optimal_basis_pure(psi).bloch == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_optimal_basis_mub_property():
    rng = np.random.default_rng(36)
    for _ in range(100):
        psi = random_pure_state(rng, 4)
        basis = optimal_basis_pure(psi)
        amps = psi.reshape(2, 2)
        for k in (0, 1):
            a_k = amps[:, k]
            norm = np.linalg.norm(a_k)
            if norm > 1e-6:
                overlap = abs(np.vdot(basis.ket_plus, a_k / norm)) ** 2
                assert overlap == pytest.approx(0.5, abs=1e-10)


def test_optimal_basis_achieves_closed_form():
    rng = np.random.default_rng(37)
    for _ in range(100):
        psi = random_pure_state(rng, 4)
        outcomes = alice_measure(projector(psi), optimal_basis_pure(psi))
        closed = coa_closed_form(partial_trace(projector(psi), "B"))
        assert average_assisted_coherence(outcomes) == pytest.approx(closed, abs=1e-10)


def test_optimal_basis_rejects_zero_vector():
    with pytest.raises(qcore.InvalidStateError):
        optimal_basis_pure(np.zeros(4))


def test_batched_basis_rule_is_bit_identical_to_scalar_rule():
    rng = np.random.default_rng(38)
    psis = [random_pure_state(rng, 4) for _ in range(400)]
    # product states: Alice's vectors are parallel, or Bob's |V> (or |H>) carries no amplitude
    psis += [np.kron(random_pure_state(rng, 2), random_pure_state(rng, 2)) for _ in range(50)]
    psis += [np.kron(random_pure_state(rng, 2), ket) for ket in (qcore.KET_H, qcore.KET_V) for _ in range(25)]
    # an Alice vector along +-y, alone or with a second one
    psis += [np.kron(ket, bob) for ket in (qcore.KET_Y_PLUS, qcore.KET_Y_MINUS) for bob in (qcore.KET_H, qcore.KET_X_PLUS)]
    psis += [(np.kron(qcore.KET_Y_PLUS, qcore.KET_H) + np.kron(random_pure_state(rng, 2), qcore.KET_V)) for _ in range(10)]
    # both Alice vectors in the xy (or yz) plane: the normal lies along z (or x), so the sign tie-break decides
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        for plane in (lambda t: [1.0, np.exp(1j * t)], lambda t: [math.cos(t / 2), 1j * math.sin(t / 2)]):
            psis.append(np.kron(plane(t1), qcore.KET_H) + np.kron(plane(t2), qcore.KET_V))
    psis = [psi / np.linalg.norm(psi) for psi in psis]
    psis += [family1(t) for t in (0.0, 22.5, 45.0)] + [family2(t) for t in (0.0, 45.0)]
    batched = protocol.optimal_blochs_pure(np.array(psis))
    assert batched.shape == (len(psis), 3)
    for psi, row in zip(psis, batched.tolist()):
        scalar = optimal_basis_pure(psi).bloch
        assert tuple(row) == scalar
        assert scalar == oracles.optimal_basis_pure_oracle(psi).bloch
    assert optimal_basis_pure(np.kron(qcore.KET_Y_MINUS, qcore.KET_H)).bloch == (1.0, 0.0, 0.0)


# --- optimize_basis ----------------------------------------------------------

def test_optimize_basis_werner_values():
    for p in (0.3, 0.9):
        basis, value = optimize_basis(make_werner(p), grid_res=32, refine_iters=25)
        assert value == pytest.approx(oracles.werner_after(p), abs=1e-6)
        assert abs(basis.bloch[2]) <= math.pi / 2.0 / 31
    _, v9 = optimize_basis(make_werner(0.9), grid_res=32, refine_iters=25)
    assert v9 == pytest.approx(0.7136030428840436, abs=1e-6)


def test_optimize_basis_flat_objective():
    basis, value = optimize_basis(make_werner(0.0), grid_res=8, refine_iters=5)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert basis.bloch == (0.0, 0.0, 1.0)  # ties go to the smallest (theta, phi)


def test_optimize_basis_family1_bell_point():
    _, value = optimize_basis(projector(family1(22.5)), grid_res=16, refine_iters=15)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_optimize_basis_rejects_bad_arguments(monkeypatch):
    rho = make_werner(0.5)
    for bad in (7, 8.0, True, "16", None, protocol.GRID_RES_MAX + 1):
        with pytest.raises(ValueError, match="grid_res"):
            optimize_basis(rho, grid_res=bad)
    for bad in (-1, 2.0, False, None):
        with pytest.raises(ValueError, match="refine_iters"):
            optimize_basis(rho, grid_res=8, refine_iters=bad)
    optimize_basis(rho, grid_res=np.int64(8), refine_iters=np.int64(0))
    monkeypatch.setattr(protocol, "GRID_RES_MAX", 10)
    optimize_basis(rho, grid_res=10, refine_iters=0)
    with pytest.raises(ValueError, match="grid_res"):
        optimize_basis(rho, grid_res=11, refine_iters=0)


# --- the Pauli-coordinate search against the dense loop (tests/oracles.py) -----

def _grid(grid_res: int):
    thetas = np.linspace(0.0, math.pi / 2.0, grid_res)
    phis = (2.0 * math.pi / grid_res) * np.arange(grid_res)
    n = np.array([[MeasurementBasis.from_angles(t, p).bloch for p in phis] for t in thetas])
    return thetas, phis, n


def test_closed_form_objective_matches_dense_path():
    rng = np.random.default_rng(41)
    products = [np.kron(projector(qcore.KET_H), random_density(rng, 2)) for _ in range(2)]
    rhos = [random_density(rng, 4) for _ in range(24)] + products
    rhos += [projector(family1(t)) for t in (0.0, 22.5)] + [projector(family2(t)) for t in (10.0, 45.0)]
    for rho in products:  # the poles leave one outcome with probability 0
        assert alice_measure(rho, MeasurementBasis((0.0, 0.0, 1.0))).outcomes[1].zero_prob
    thetas, phis, n = _grid(16)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for rho in rhos:
        coords = protocol._pauli_coordinates(rho)
        grid = protocol._assisted_coherence(n, *coords)
        for i, theta in enumerate(thetas.tolist()):
            for j, phi in enumerate(phis.tolist()):
                dense = oracles.dense_assisted_coherence(rho, theta, phi)
                assert abs(grid[i, j] - dense) <= 1e-12
        for theta, batched in zip((0.0, math.pi), protocol._assisted_coherence(poles, *coords)):
            dense = oracles.dense_assisted_coherence(rho, theta, 0.0)
            assert abs(batched - dense) <= 1e-12


def test_search_matches_dense_oracle_argmax_and_value():
    rng = np.random.default_rng(43)
    _, _, n = _grid(16)
    mixed = [random_density(rng, 4) for _ in range(6)]
    flat = [make_werner(0.7), projector(family1(22.5)), np.kron(projector(qcore.KET_H), random_density(rng, 2))]
    for k, rho in enumerate(mixed + flat):
        ref = oracles.basis_search_oracle(rho, 16, 6)
        _, value, trace = protocol._basis_search(rho, 16, 6)
        assert value >= ref.value - 1e-12
        if k < len(mixed):
            grid = protocol._assisted_coherence(n, *protocol._pauli_coordinates(rho))
            second, first = np.sort(grid, axis=None)[-2:]
            assert first - second > 1e-9  # a unique grid argmax
            assert np.unravel_index(np.argmax(grid), grid.shape) == ref.grid_index
            assert trace[0][0] == ref.trace[0][0]


def test_zoom_follows_a_ridge_past_its_lattice():
    # on these states the best basis near the grid argmax lies along a ridge, more than the 8/7 grid steps
    # away that a zoom shrinking every round can reach; a zoom that shrank on edge moves fell 1e-6 and 1.6e-4 short
    picks = ((43, 12), (45, 54))  # (seed, index) of random_density draws
    for seed, index in picks:
        rng = np.random.default_rng(seed)
        rho = [random_density(rng, 4) for _ in range(index + 1)][-1]
        ref = oracles.basis_search_oracle(rho, 16, 6)
        _, value, trace = protocol._basis_search(rho, 16, 6)
        assert value >= ref.value - 1e-12
        assert len(trace) == 7 and trace[-1][1] == value
        assert all(later[1] >= earlier[1] for earlier, later in zip(trace, trace[1:]))


def test_zoom_early_exit_is_bit_identical_to_every_round():
    # the search stops once its lattice rounds onto one point; all 30 rounds give the same basis, value and trace
    rng = np.random.default_rng(48)
    plus_x, plus_z = projector(qcore.KET_X_PLUS), projector(qcore.KET_H)
    minus_x, minus_z = np.eye(2) - plus_x, np.eye(2) - plus_z
    states = [random_density(rng, 4) for _ in range(70)]
    states += [projector(random_pure_state(rng, 4)) for _ in range(70)]
    states += [make_werner(float(p)) for p in rng.uniform(0.0, 1.0, 60)]
    states += [
        (np.kron(plus_z, plus_x) + np.kron(minus_z, minus_x)) / 2.0,  # best basis at theta = 0
        (np.kron(plus_x, plus_x) + np.kron(minus_x, minus_x)) / 2.0,  # best basis at phi = 0
    ]
    ends = set()
    for rho in states:
        basis, value, trace = protocol._basis_search(rho, 16, 30)
        want_basis, want_value, want_trace = oracles.zoom_search_oracle(rho, 16, 30)
        assert (basis, value, trace) == (want_basis, want_value, want_trace)
        assert len(trace) == 31
        ends.update(name for name, angle in zip(("theta", "phi"), trace[-1][0]) if angle == 0.0)
    assert ends == {"theta", "phi"}


@st.composite
def _mixed_states(draw):
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))).reshape(2, 4, 4)
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    trace = m.trace().real
    assume(trace > 1e-6)
    return m / trace


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_mixed_states())
def test_optimize_basis_property_unit_basis_between_marginal_and_qi_bound(rho):
    basis, value = optimize_basis(rho, grid_res=8, refine_iters=3)
    assert abs(float(np.linalg.norm(basis.bloch)) - 1.0) <= 1e-12
    assert value <= qi_relative_entropy(rho) + 1e-9
    assert value >= rel_entropy_coherence(partial_trace(rho, "B")).c_r - 1e-12


def test_protocol_imports_without_coherence():
    # the package __init__ imports every module, so load protocol under a bare package
    pkg_dir = str(Path(cohdist.__file__).resolve().parent)
    code = (
        "import sys, types\n"
        f"pkg = types.ModuleType('cohdist'); pkg.__path__ = [{pkg_dir!r}]\n"
        "sys.modules['cohdist'] = pkg\n"
        "import cohdist.protocol\n"
        "print(sorted(m for m in sys.modules if m.startswith('cohdist.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['cohdist.protocol', 'cohdist.qcore']"
