import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cohdist
from cohdist import harness, protocol, qcore
from cohdist.coherence import coa_closed_form, coa_numeric, qi_relative_entropy, rel_entropy_coherence
from cohdist.harness import parse_grid
from cohdist.protocol import (
    MeasurementBasis,
    alice_measure,
    average_assisted_coherence,
    optimal_basis_pure,
    optimize_basis,
)
from cohdist.qcore import partial_trace, projector
from cohdist.states import family1, family2, make_werner, singlet

import oracles
from sampling import random_bloch, random_density, random_pure_state, two_basin_states

Y_BASIS = MeasurementBasis((0.0, 1.0, 0.0))


# --- MeasurementBasis --------------------------------------------------------

def test_basis_rejects_non_unit_vector():
    with pytest.raises(ValueError):
        MeasurementBasis((0.0, 0.0, 0.9))


def test_non_finite_bloch_vectors_and_kets_are_rejected():
    nan, inf = math.nan, math.inf
    for bloch in ((nan, 0.0, 1.0), (nan, nan, nan), (inf, 0.0, 0.0), (0.0, -inf, 1.0), (1, 0, 0j)):
        with pytest.raises(ValueError):
            MeasurementBasis(bloch)
    for bad in (nan, inf, complex(0.0, nan)):
        psi = np.array([bad, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(qcore.InvalidStateError):
            coa_numeric(psi, grid_res=8, refine_iters=0)
        with pytest.raises(qcore.InvalidStateError):
            optimal_basis_pure(psi)
    for psi in ("x", [1.0, "a", 0.0, 0.0]):  # not numbers
        for call in (qcore.ensure_state_vector, optimal_basis_pure, lambda v: coa_numeric(v, grid_res=8, refine_iters=0)):
            with pytest.raises(qcore.InvalidStateError):
                call(psi)


# --- alice_measure -----------------------------------------------------------

def test_measure_family1_in_y_basis():
    for theta in (5.0, 15.0, 22.5, 40.0):
        t2 = math.radians(2 * theta)
        outcomes = alice_measure(projector(family1(theta)), Y_BASIS)
        assert outcomes.probs == pytest.approx((0.5, 0.5), abs=1e-12)
        collapsed = {
            "+": np.array([math.cos(t2), -1j * math.sin(t2)]),
            "-": np.array([math.cos(t2), 1j * math.sin(t2)]),
        }
        for o in outcomes:
            assert np.max(np.abs(o.bob_state - projector(collapsed[o.label]))) <= 1e-12


def test_measure_werner_in_y_basis():
    for p in (0.25, 0.5, 0.9):
        outcomes = alice_measure(make_werner(p), Y_BASIS)
        assert outcomes.probs == pytest.approx((0.5, 0.5), abs=1e-12)
        collapsed = {
            "+": p * projector(oracles.KET_Y_MINUS) + (1 - p) * np.eye(2) / 2,
            "-": p * projector(oracles.KET_Y_PLUS) + (1 - p) * np.eye(2) / 2,
        }
        for o in outcomes:
            assert np.max(np.abs(o.bob_state - collapsed[o.label])) <= 1e-12


def test_measure_family1_in_z_basis():
    theta = 15.0
    t2 = math.radians(2 * theta)
    outcomes = alice_measure(projector(family1(theta)), MeasurementBasis((0.0, 0.0, 1.0)))
    assert outcomes.probs == pytest.approx((math.cos(t2) ** 2, math.sin(t2) ** 2), abs=1e-12)
    states = {o.label: o.bob_state for o in outcomes}
    assert np.allclose(states["+"], projector(oracles.KET_H), atol=1e-12)
    assert np.allclose(states["-"], projector(oracles.KET_V), atol=1e-12)


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
    product = np.kron(projector(oracles.KET_H), random_density(rng, 2))  # the poles leave one outcome at p = 0
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
    outcomes = alice_measure(projector(singlet()), Y_BASIS)
    assert average_assisted_coherence(outcomes) == pytest.approx(1.0, abs=1e-12)


def test_average_werner_half():
    outcomes = alice_measure(make_werner(0.5), Y_BASIS)
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

# the harness measures every kind along y; for the pure families that is exactly the ideal parent's optimal basis
_FAMILY_THETAS = (0.0, 2.5, 10.0, 15.0, 22.5, 30.0, 35.0, 42.5, 45.0) + parse_grid("0:45:0.01")


def test_optimal_basis_family1_is_y():
    for theta in _FAMILY_THETAS:
        assert optimal_basis_pure(family1(theta)).bloch == (0.0, 1.0, 0.0), theta


def test_optimal_basis_family2_is_y():
    for theta in _FAMILY_THETAS:
        assert optimal_basis_pure(family2(theta)).bloch == (0.0, 1.0, 0.0), theta


def test_optimal_basis_degenerate_product_state():
    psi = np.kron(oracles.KET_H, oracles.KET_X_PLUS)
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
                # |<n+|a>|^2 = (1 + n.m) / 2, so an overlap of 1/2 is n orthogonal to a's Bloch vector m
                assert abs(np.dot(basis.bloch, oracles.bloch_vector(a_k / norm))) <= 2e-10


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


def test_basis_rule_is_bit_identical_to_scalar_oracle():
    rng = np.random.default_rng(38)
    psis = [random_pure_state(rng, 4) for _ in range(400)]
    # product states: Alice's vectors are parallel, or Bob's |V> (or |H>) carries no amplitude
    psis += [np.kron(random_pure_state(rng, 2), random_pure_state(rng, 2)) for _ in range(50)]
    psis += [np.kron(random_pure_state(rng, 2), ket) for ket in (oracles.KET_H, oracles.KET_V) for _ in range(25)]
    # an Alice vector along +-y, alone or with a second one
    psis += [np.kron(ket, bob) for ket in (oracles.KET_Y_PLUS, oracles.KET_Y_MINUS) for bob in (oracles.KET_H, oracles.KET_X_PLUS)]
    psis += [(np.kron(oracles.KET_Y_PLUS, oracles.KET_H) + np.kron(random_pure_state(rng, 2), oracles.KET_V)) for _ in range(10)]
    # both Alice vectors in the xy (or yz) plane: the normal lies along z (or x), so the sign tie-break decides
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        for plane in (lambda t: [1.0, np.exp(1j * t)], lambda t: [math.cos(t / 2), 1j * math.sin(t / 2)]):
            psis.append(np.kron(plane(t1), oracles.KET_H) + np.kron(plane(t2), oracles.KET_V))
    psis = [psi / np.linalg.norm(psi) for psi in psis]
    psis += [family1(t) for t in (0.0, 22.5, 45.0)] + [family2(t) for t in (0.0, 45.0)]
    for psi in psis:
        assert optimal_basis_pure(psi).bloch == oracles.optimal_basis_pure_oracle(psi).bloch
    assert optimal_basis_pure(np.kron(oracles.KET_Y_MINUS, oracles.KET_H)).bloch == (1.0, 0.0, 0.0)


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


def test_outcomes_stack_both_signs_and_broadcast_bases_against_states():
    rng = np.random.default_rng(50)
    rhos = np.stack([random_density(rng, 4) for _ in range(40)] + [projector(random_pure_state(rng, 4)) for _ in range(20)])
    y = harness.ALICE_BLOCH
    p, r = protocol._outcomes(y, *protocol._pauli_coordinates(rhos))  # one basis for a stack of states
    assert p.shape == (2, len(rhos)) and r.shape == (2, len(rhos), 3)
    for g, rho in enumerate(rhos):
        p_g, r_g = protocol._outcomes(y, *protocol._pauli_coordinates(rho))
        assert p_g.shape == (2,) and r_g.shape == (2, 3)
        assert np.array_equal(p[:, g], p_g) and np.array_equal(r[:, g], r_g)
    assert (p[0] + p[1] == 1.0).all()
    _, _, n = _grid(16)
    product = np.kron(projector(oracles.KET_H), random_density(rng, 2))  # the pole n = +z drops outcome -
    for rho in (rhos[0], rhos[-1], product):  # a stack of bases for one state
        p, r = protocol._outcomes(n, *protocol._pauli_coordinates(rho))
        assert p.shape == (2, 16, 16) and r.shape == (2, 16, 16, 3)
        kept = (p > 0.0).all(axis=0)
        assert (p[0] + p[1] == 1.0)[kept].all()
    assert not kept[0].any() and kept[1:].all()


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(np.ascontiguousarray(x).view(np.uint64), np.ascontiguousarray(y).view(np.uint64))


def test_components_first_map_matches_the_broadcast_bit_for_bit():
    rng = np.random.default_rng(64)
    rhos = np.stack([random_density(rng, 4) for _ in range(30)] + [projector(random_pure_state(rng, 4)) for _ in range(7)])
    product = np.kron(projector(oracles.KET_H), random_density(rng, 2))  # n = +z gives outcome - probability 0
    _, _, grid = protocol._hemisphere(16)
    theta, phi = 0.7, 1.1
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    frame = np.array([[math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)], [-math.sin(phi), math.cos(phi), 0.0]])
    chart = oracles.chart_points(n, frame)  # the five points of the central-difference tangent Hessian
    cases = [
        (harness.ALICE_BLOCH, protocol._pauli_coordinates(rhos)),  # the runner: one basis, N states
        (harness.ALICE_BLOCH, protocol._pauli_coordinates(rhos[0])),  # alice_measure and tomo-demo: one basis, one state
        (grid, protocol._pauli_coordinates(rhos[-1])),  # the search grid
        (chart, protocol._pauli_coordinates(rhos[1])),
        (grid, protocol._pauli_coordinates(rhos[:5, None, None])),  # an (S, 1, 1) stack against the grid
        (np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), protocol._pauli_coordinates(product)),  # the poles
        (grid, protocol._pauli_coordinates(product)),
    ]
    for k, (n, coords) in enumerate(cases):
        p, r = protocol._outcomes(n, *coords)
        p_ref, r_ref = oracles.outcomes_broadcast(n, *coords)
        assert r_ref.flags.c_contiguous and np.moveaxis(r, -1, 0).flags.c_contiguous  # r[..., j] views one buffer
        assert _same_bits(p, p_ref) and _same_bits(r, r_ref), k
        assert _same_bits(protocol._qubit_coherence(r), oracles.qubit_coherence_broadcast(r_ref)), k
        assert _same_bits(oracles.coherence_gradient(r), oracles.coherence_gradient_broadcast(r_ref)), k
        assert _same_bits(protocol._norm(r_ref), np.linalg.norm(r_ref, axis=-1)), k  # and on a (..., 3) layout
    assert (p == 0.0).any()  # the pole's outcome - is scored, with p = 0
    r = rng.uniform(-1.0, 1.0, (3,))  # one Bloch vector, as average_assisted_coherence passes it
    assert _same_bits(protocol._qubit_coherence(r), oracles.qubit_coherence_broadcast(r))
    assert _same_bits(oracles.coherence_gradient(r), oracles.coherence_gradient_broadcast(r))


def test_hemisphere_is_read_only_cached_and_one_resolution_deep():
    rng = np.random.default_rng(65)
    rho = random_density(rng, 4)
    protocol._hemisphere.cache_clear()
    for res in (8, 16, 64):
        protocol._basis_search(rho, res, 0)
    info = protocol._hemisphere.cache_info()
    assert (info.misses, info.currsize) == (3, 1)
    thetas, phis, grid = protocol._hemisphere(64)
    assert protocol._hemisphere.cache_info().hits == info.hits + 1  # 64 is the one kept
    for x in (thetas, phis, grid):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
    fresh = protocol._hemisphere.__wrapped__(64)
    assert all(_same_bits(x, y) for x, y in zip((thetas, phis, grid), fresh))
    ref_thetas, ref_phis, ref_grid = _grid(64)
    assert _same_bits(thetas, ref_thetas) and _same_bits(phis, ref_phis) and np.abs(grid - ref_grid).max() <= 1e-15
    protocol._basis_search(rho, 16, 0)
    assert protocol._hemisphere.cache_info().currsize == 1 and protocol._hemisphere(16)[2].shape == (16, 16, 3)


def test_closed_form_objective_matches_dense_path():
    rng = np.random.default_rng(41)
    products = [np.kron(projector(oracles.KET_H), random_density(rng, 2)) for _ in range(2)]
    rhos = [random_density(rng, 4) for _ in range(24)] + products
    rhos += [projector(family1(t)) for t in (0.0, 22.5)] + [projector(family2(t)) for t in (10.0, 45.0)]
    for rho in products:  # the poles leave one outcome with probability 0
        assert alice_measure(rho, MeasurementBasis((0.0, 0.0, 1.0))).outcomes[1].zero_prob
    thetas, phis, n = _grid(16)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    angles = [(theta, phi) for theta in thetas.tolist() for phi in phis.tolist()] + [(0.0, 0.0), (math.pi, 0.0)]
    for rho in rhos:  # the grid and the poles in one batch of the dense map per state
        coords, dense = protocol._pauli_coordinates(rho), oracles.dense_assisted_coherences(rho, angles)
        assert np.abs(protocol._assisted_coherence(n, *coords).ravel() - dense[:-2]).max() <= 1e-12
        assert np.abs(protocol._assisted_coherence(poles, *coords) - dense[-2:]).max() <= 1e-12


def test_batched_dense_map_matches_the_scalar_one():
    rng = np.random.default_rng(66)
    rhos = [random_density(rng, 4) for _ in range(5)] + [projector(random_pure_state(rng, 4)), make_werner(0.4)]
    rhos.append(np.kron(projector(oracles.KET_H), random_density(rng, 2)))  # the poles leave one outcome with p = 0
    angles = [(0.0, 0.0), (math.pi, 0.0)] + [(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(10)]
    for rho in rhos:
        batch = oracles.dense_assisted_coherences(rho, angles)
        assert np.abs(batch - [oracles.dense_assisted_coherence(rho, *a) for a in angles]).max() <= 1e-14


def test_search_matches_dense_oracle_argmax_and_value():
    rng = np.random.default_rng(43)
    _, _, n = _grid(16)
    mixed = [random_density(rng, 4) for _ in range(6)]
    flat = [make_werner(0.7), projector(family1(22.5)), np.kron(projector(oracles.KET_H), random_density(rng, 2))]
    for k, rho in enumerate(mixed + flat):
        ref = oracles.basis_search_oracle(rho, 16, 6)
        _, value, trace, _ = protocol._basis_search(rho, 16, 6)
        assert value >= ref.value - 1e-12
        if k < len(mixed):
            grid = protocol._assisted_coherence(n, *protocol._pauli_coordinates(rho))
            second, first = np.sort(grid, axis=None)[-2:]
            assert first - second > 1e-9  # a unique grid argmax
            assert np.unravel_index(np.argmax(grid), grid.shape) == ref.grid_index
            assert trace[0][0] == ref.trace[0][0]


# --- the Newton steps after the grid ----------------------------------------

SEARCH_VALUES_0_7_0 = Path(__file__).parent / "data" / "search_values_0.7.0.json"


def _search_gate_sets():
    """{name: (grid_res, refine_iters, states)}: the states 0.7.0's zoom was pinned on, and 200 depolarized pure ones."""
    rng = np.random.default_rng(48)  # the zoom early-exit states, searched at (16, 30)
    plus_x, plus_z = projector(oracles.KET_X_PLUS), projector(oracles.KET_H)
    minus_x, minus_z = np.eye(2) - plus_x, np.eye(2) - plus_z
    early = [random_density(rng, 4) for _ in range(70)] + [projector(random_pure_state(rng, 4)) for _ in range(70)]
    early += [make_werner(float(p)) for p in rng.uniform(0.0, 1.0, 60)]
    early += [(np.kron(plus_z, plus_x) + np.kron(minus_z, minus_x)) / 2.0]  # best basis at theta = 0
    early += [(np.kron(plus_x, plus_x) + np.kron(minus_x, minus_x)) / 2.0]  # best basis at phi = 0
    rng = np.random.default_rng(43)  # test_search_matches_dense_oracle_argmax_and_value's states, at (16, 6)
    dense = [random_density(rng, 4) for _ in range(6)]
    dense += [make_werner(0.7), projector(family1(22.5)), np.kron(projector(oracles.KET_H), random_density(rng, 2))]
    ridges = []  # states whose optimum lies along a ridge several grid steps from the grid argmax, at (16, 6)
    for seed, index in ((43, 12), (45, 54)):
        rng = np.random.default_rng(seed)
        ridges.append([random_density(rng, 4) for _ in range(index + 1)][-1])
    rng = np.random.default_rng(5)  # epsilon-depolarized random pure states, at the defaults (64, 30)
    depolarized = []
    for _ in range(200):
        psi, eps = random_pure_state(rng, 4), float(rng.choice([0.05, 0.3, 0.6]))
        depolarized.append((1.0 - eps) * projector(psi) + eps * np.eye(4) / 4.0)
    return {
        "early_exit": (16, 30, early), "dense_oracle": (16, 6, dense), "ridges": (16, 6, ridges), "depolarized": (64, 30, depolarized),
    }


def test_coherence_and_objective_gradients_match_central_differences():
    rng = np.random.default_rng(60)
    h = 1e-6
    for _ in range(200):  # grad C_r inside the Bloch ball
        r = np.array(random_bloch(rng)) * rng.uniform(0.0, 0.95)
        fd = [(protocol._qubit_coherence(r + h * e) - protocol._qubit_coherence(r - h * e)) / (2.0 * h) for e in np.eye(3)]
        assert np.abs(oracles.coherence_gradient(r) - fd).max() <= 1e-8
    for _ in range(40):  # f's gradient and Hessian on the sphere, in _local_model's tangent chart
        coords = protocol._pauli_coordinates(random_density(rng, 4))
        theta, phi = rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi)
        n, frame, value, grad, hess = protocol._local_model(theta, phi, coords)

        def f(x):
            m = n + np.asarray(x) @ frame
            return float(protocol._assisted_coherence(m / np.linalg.norm(m), *coords))

        assert abs(value - f([0.0, 0.0])) <= 1e-15
        fd = [(f(h * e) - f(-h * e)) / (2.0 * h) for e in np.eye(2)]
        assert np.abs(np.subtract(grad, fd)).max() <= 1e-8
        k = 1e-4
        second = [[f(k * (ei + ej)) - f(k * (ei - ej)) - f(k * (ej - ei)) + f(-k * (ei + ej)) for ej in np.eye(2)] for ei in np.eye(2)]
        assert np.abs(hess - np.array(second) / (4.0 * k * k)).max() <= 1e-6
    product = protocol._pauli_coordinates(np.kron(projector(oracles.KET_H), random_density(rng, 2)))
    _, _, value, grad, hess = protocol._local_model(0.0, 0.0, product)  # the pole: outcome - has p = 0 and adds 0
    assert value == float(protocol._assisted_coherence(np.array([0.0, 0.0, 1.0]), *product))
    assert np.isfinite(grad).all() and np.isfinite(hess).all()
    # coordinates (not of a state) whose outcome - has p = 0 and a far-off r at the pole: it must add 0 to the gradient too
    coords = (np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.0, 0.2]), np.array([[0.3, 0.0, 0.0], [0.0, 0.2, 0.0], [0.1, 0.2, 0.3]]))
    n, frame, _, grad, _ = protocol._local_model(0.0, 0.3, coords)

    def g(x):
        return float(protocol._assisted_coherence((n + x @ frame) / np.linalg.norm(n + x @ frame), *coords))

    assert np.abs(np.subtract(grad, [(g(h * e) - g(-h * e)) / (2.0 * h) for e in np.eye(2)])).max() <= 1e-8


def test_closed_form_hessian_matches_central_differences_of_the_gradient():
    # pure parents and depolarized pure states (the test above draws Hilbert-Schmidt states), against the 0.10.0 rule:
    # central differences of the tangent gradient, not second differences of values, whose ~1e-14 rounding on a pure
    # parent would put their error at ~1e-6
    rng = np.random.default_rng(67)
    rhos = [projector(random_pure_state(rng, 4)) for _ in range(20)]
    rhos += [(1.0 - eps) * projector(random_pure_state(rng, 4)) + eps * np.eye(4) / 4.0 for eps in (0.05, 0.3) * 10]
    for rho in rhos:
        coords = protocol._pauli_coordinates(rho)
        theta, phi = rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi)
        _, _, value, grad, hess = protocol._local_model(theta, phi, [x.tolist() for x in coords])
        _, _, ref_value, ref_grad, ref_hess = oracles.five_point_model(theta, phi, coords)
        assert abs(value - ref_value) <= 2e-14 and np.abs(np.subtract(grad, ref_grad)).max() <= 1e-12  # ~1.3e-14 rounding
        assert np.abs(np.subtract(hess, ref_hess)).max() <= 1e-6 * np.abs(ref_hess).max()


def test_search_values_never_fall_below_0_7_0():
    # values only rise: at least 0.7.0's grid-and-zoom value less 1e-14 (rounding at a shared optimum), converged throughout
    stored = json.loads(SEARCH_VALUES_0_7_0.read_text())
    worst = {}
    for name, (grid_res, refine_iters, states) in _search_gate_sets().items():
        old = stored[name]
        assert (old["grid_res"], old["refine_iters"], len(old["value"])) == (grid_res, refine_iters, len(states))
        for rho, old_grid, old_value in zip(states, old["grid"], old["value"]):
            _, value, trace, converged = protocol._basis_search(rho, grid_res, refine_iters)
            assert abs(trace[0][1] - float.fromhex(old_grid)) <= 1e-12  # the same state, and the same grid
            assert converged and value >= float.fromhex(old_value) - 1e-14
            worst[name] = max(worst.get(name, 0.0), value - float.fromhex(old_value))
    assert worst["depolarized"] > 1e-5  # the zoom stopped short on these; the Newton steps do not


SEARCH_BITS_0_9_0 = Path(__file__).parent / "data" / "search_bits_0.9.0.json"
SEARCH_BITS_0_10_0 = Path(__file__).parent / "data" / "search_bits_0.10.0.json"
SEARCH_BITS_0_11_0 = Path(__file__).parent / "data" / "search_bits_0.11.0.json"


def _search_bits() -> dict:
    """The search's exact results, every float as float.hex, in the layout of the search_bits_*.json goldens.

    {name: [{"value", "basis", "trace", "converged"}, ...]} for _basis_search on _search_gate_sets' dense_oracle
    and ridges states and every tenth early_exit state, and for coa_numeric (at its defaults) on 10 random pure
    states.  search_bits_<version>.json holds this function's output under that cohdist version:
    json.dumps({"about": ..., **_search_bits()}, indent=1) with tests/ and src/ on sys.path."""

    def bits(basis, value, trace, converged):
        return {
            "value": value.hex(),
            "basis": [x.hex() for x in basis.bloch],
            "trace": [[theta.hex(), phi.hex(), v.hex()] for (theta, phi), v in trace],
            "converged": converged,
        }

    sets, out = _search_gate_sets(), {}
    for name, step in (("dense_oracle", 1), ("ridges", 1), ("early_exit", 10)):
        grid_res, refine_iters, states = sets[name]
        out[name] = [bits(*protocol._basis_search(rho, grid_res, refine_iters)) for rho in states[::step]]
    rng = np.random.default_rng(63)
    results = [coa_numeric(random_pure_state(rng, 4)) for _ in range(10)]
    out["coa_numeric"] = [bits(res.argmax_basis, res.value, res.optimizer_trace, res.converged) for res in results]
    return out


def test_search_values_never_fall_below_0_9_0():
    # 0.10.0's grid 16 and ridge steps move bases: 0.9.0's values stay a floor, less 1e-14 of rounding at a shared optimum
    stored = json.loads(SEARCH_BITS_0_9_0.read_text())
    got = _search_bits()
    assert sorted(got) == sorted(k for k in stored if k != "about")
    for name, records in got.items():
        assert len(records) == len(stored[name])
        for i, (record, old) in enumerate(zip(records, stored[name])):
            assert record["converged"] and float.fromhex(record["value"]) >= float.fromhex(old["value"]) - 1e-14, f"{name}[{i}]"


def test_search_values_never_fall_below_0_10_0():
    # 0.11.0's closed-form Hessian moves bases and trace bits: 0.10.0's values stay a floor, less 1e-14 of rounding
    stored = json.loads(SEARCH_BITS_0_10_0.read_text())
    got = _search_bits()
    assert sorted(got) == sorted(k for k in stored if k != "about")
    for name, records in got.items():
        assert len(records) == len(stored[name])
        for i, (record, old) in enumerate(zip(records, stored[name])):
            assert record["converged"] and float.fromhex(record["value"]) >= float.fromhex(old["value"]) - 1e-14, f"{name}[{i}]"


def test_search_bits_match_0_11_0():
    # the search's layout and arithmetic must not move a single bit of any search
    stored = json.loads(SEARCH_BITS_0_11_0.read_text())
    got = _search_bits()
    assert sorted(got) == sorted(k for k in stored if k != "about")
    for name, records in got.items():
        assert len(records) == len(stored[name])
        for i, (record, want) in enumerate(zip(records, stored[name])):
            # the golden pins one build's bits (see its "about"): on another numpy build, libm or CPU a mismatch
            # here can be a rounding difference of log2 or arctanh, not a program fault
            assert record == want, f"{name}[{i}] differs from the golden written by: {stored['about']}"


def test_every_gate_state_matches_the_multistart_reference_at_the_defaults():
    for name, (_, _, states) in _search_gate_sets().items():
        for i, (rho, reference) in enumerate(zip(states, oracles.multistart_search_oracles(states), strict=True)):
            _, value = optimize_basis(rho)
            assert abs(value - reference) <= 1e-12, f"{name}[{i}]"


def test_two_basin_states_reach_the_closed_form():
    # two near-equal basins joined by a flat ridge: 0.9.0 stopped on the ridge, up to 5e-7 short at (16, 30)
    capped = 0
    for rho, best in two_basin_states():
        assert abs(optimize_basis(rho)[1] - best) <= 1e-9  # at the defaults
        _, value, trace, converged = protocol._basis_search(rho, 16, 30)
        assert converged and abs(value - best) <= 1e-9
        coords = protocol._pauli_coordinates(rho)
        for (start, _), (end, _) in zip(trace, trace[1:]):  # a step from |g| <= GTOL is capped at RIDGE_STEP in the chart
            n, _, _, grad, _ = protocol._local_model(*start, coords)
            if np.linalg.norm(grad) <= protocol.NEWTON_GTOL:
                angle = math.acos(min(1.0, float(np.dot(n, protocol._local_model(*end, coords)[0]))))
                assert angle <= math.atan(protocol.RIDGE_STEP) + 1e-12
                capped += angle >= math.atan(protocol.RIDGE_STEP) - 1e-12
    assert capped > 0  # the cap is reached on some ridges


def test_search_matches_the_multistart_dense_reference():
    sets = _search_gate_sets()
    picks = [(16, 6, rho) for name in ("dense_oracle", "ridges") for rho in sets[name][2]]
    picks += [(g, k, rho) for name in ("early_exit", "depolarized") for g, k, states in [sets[name]] for rho in states[::25]]
    for grid_res, refine_iters, rho in picks:
        _, value, _, _ = protocol._basis_search(rho, grid_res, refine_iters)
        assert abs(value - oracles.multistart_search_oracle(rho)) <= 1e-12


def test_pure_parents_converge_without_warnings():
    rng = np.random.default_rng(61)
    psis = [random_pure_state(rng, 4) for _ in range(40)] + [family1(t) for t in (0.0, 10.0, 22.5)] + [family2(0.0), family2(30.0)]
    bell = (np.kron(oracles.KET_H, oracles.KET_H) + np.kron(oracles.KET_V, oracles.KET_V)) / math.sqrt(2.0)  # r_z = +-1 at n = z
    psis += [np.kron(oracles.KET_H, oracles.KET_H), np.kron(oracles.KET_X_PLUS, oracles.KET_H), bell]  # flat objectives, then a Bell state
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # atanh(1) = inf would warn
        for psi in psis:
            res = coa_numeric(psi)
            assert res.converged
            assert abs(res.value - coa_closed_form(partial_trace(projector(psi), "B"))) <= 1e-12


def test_step_cap_reports_convergence_honestly():
    rng = np.random.default_rng(62)
    states = [random_density(rng, 4) for _ in range(10)] + [projector(random_pure_state(rng, 4)) for _ in range(5)]
    states.append(make_werner(0.4))  # the grid holds its optimum, the equator
    converged = {0: [], 3: [], 30: []}
    for rho in states:
        coords = protocol._pauli_coordinates(rho)
        for cap in converged:
            basis, value, trace, ok = protocol._basis_search(rho, 8, cap)
            assert len(trace) <= cap + 1 and trace[-1][1] == value and basis == MeasurementBasis.from_angles(*trace[-1][0])
            _, _, _, grad, _ = protocol._local_model(*trace[-1][0], coords)
            assert ok == (np.linalg.norm(grad) <= protocol.NEWTON_GTOL)
            converged[cap].append(ok)
    assert not any(converged[0][:15]) and all(converged[30])
    psi = random_pure_state(rng, 4)
    assert coa_numeric(psi, grid_res=8, refine_iters=0).converged is False and coa_numeric(psi).converged is True


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
