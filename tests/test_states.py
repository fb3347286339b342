import math
from decimal import Decimal

import numpy as np
import pytest
from click.testing import CliRunner

from cohdist import cli, qcore
from cohdist.coherence import rel_entropy_coherence
from cohdist.states import (
    family1,
    family2,
    make_werner,
    singlet,
)

import oracles

THETA_GRID = [2.5 * k for k in range(19)]


def test_family1_theta_zero_is_hh():
    assert np.allclose(family1(0.0), [1, 0, 0, 0])


def test_family1_half_angle_is_bell():
    assert np.allclose(family1(22.5), np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)


def test_family1_amplitudes_on_grid():
    for theta in THETA_GRID:
        t2 = math.radians(2 * theta)
        assert np.allclose(family1(theta), [math.cos(t2), 0, 0, math.sin(t2)], atol=1e-15)


def test_family2_theta_zero_is_product():
    expected = np.kron(oracles.KET_H, oracles.KET_X_PLUS)
    assert np.allclose(family2(0.0), expected, atol=1e-12)


def test_family2_amplitudes_on_grid():
    for theta in THETA_GRID:
        t2 = math.radians(2 * theta)
        c, s = math.cos(t2), math.sin(t2)
        assert np.allclose(family2(theta), np.array([c, c, s, -s]) / math.sqrt(2), atol=1e-15)


_RNG = np.random.default_rng(71)
STACK_THETAS = np.concatenate([[0.0, 22.5, 45.0], _RNG.uniform(0.0, 45.0, 500)])
STACK_PS = np.concatenate([[0.0, 1.0 / 3.0, 1.0], _RNG.uniform(0.0, 1.0, 500)])


def test_single_states_round_as_scalar_formulas():
    for theta in STACK_THETAS.tolist():
        t2 = math.radians(2.0 * theta)
        c, s = math.cos(t2), math.sin(t2)
        assert np.array_equal(family1(theta).view(float), np.array([c, 0, 0, s], dtype=complex).view(float))
        want = np.array([c, c, s, -s], dtype=complex) / math.sqrt(2.0)
        assert np.array_equal(family2(theta).view(float), want.view(float))
    for p in STACK_PS.tolist():
        want = p * qcore.projector(singlet()) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
        assert np.array_equal(make_werner(p).view(float), want.view(float))


def test_stacks_equal_single_states():
    for factory, grid in ((family1, STACK_THETAS), (family2, STACK_THETAS), (make_werner, STACK_PS)):
        stack = factory(grid)
        singles = np.stack([factory(x) for x in grid.tolist()])
        assert stack.shape == singles.shape == (len(grid),) + factory(0.0).shape
        assert np.array_equal(stack.view(float), singles.view(float)), factory.__name__


def _error(factory, arg) -> str:
    with pytest.raises(ValueError) as info:
        factory(arg)
    return str(info.value)


def test_stack_error_names_first_bad_parameter():
    nan, inf = float("nan"), float("inf")
    bad = {family1: (nan, inf, -1.0, 46.0), family2: (nan, inf, -1.0, 46.0), make_werner: (nan, inf, -1.0, 1.5)}
    for factory, values in bad.items():
        for i, first in enumerate(values):
            sequence = [0.0, first, 0.25] + list(values[:i] + values[i + 1:])
            message = _error(factory, sequence)
            assert message == _error(factory, first), (factory.__name__, sequence)
            assert message.endswith(f"got {first}")
    for args in (["pure1", "--points", "0,nan"], ["pure2", "--points", "10,46"], ["werner", "--points", "0.5,1.5"]):
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 2, args
        assert "must be in" in result.output


def test_werner_extremes():
    assert np.allclose(make_werner(0.0), np.eye(4) / 4)
    assert np.allclose(make_werner(1.0), qcore.projector(singlet()), atol=1e-15)


def test_werner_eigenvalues():
    eigs = np.linalg.eigvalsh(make_werner(0.5))
    assert np.allclose(sorted(eigs), [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_werner_is_convex_combination():
    sing = qcore.projector(singlet())
    for p in (0.0, 0.2, 1.0 / 3.0, 0.7, 1.0):
        expected = p * sing + (1 - p) * np.eye(4) / 4
        assert np.max(np.abs(make_werner(p) - expected)) <= 1e-12


def test_werner_range_error():
    with pytest.raises(ValueError):
        make_werner(1.2)
    with pytest.raises(ValueError):
        make_werner(-0.01)
    # a value that is not a number is named as it was passed
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got None"):
        make_werner([0.5, None])
    with pytest.raises(ValueError, match=r"theta must be in \[0, 45\] degrees, got None"):
        family1(None)
    # a value with no float form (complex, past float range, an object) is named too, not a TypeError or OverflowError
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got 1j$"):
        make_werner(1j)
    with pytest.raises(ValueError, match=r"theta must be in \[0, 45\] degrees, got 2j$"):
        family1(2j)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got 1" + "0" * 400 + "$"):
        make_werner(10**400)
    with pytest.raises(ValueError, match=r"theta must be in \[0, 45\] degrees, got <object object at"):
        family2([10, object()])
    # a string or Decimal that has a float form is checked by it, so the first one out of range is named
    with pytest.raises(ValueError, match=r"theta must be in \[0, 45\] degrees, got 50$"):
        family1(["10", "50"])
    with pytest.raises(ValueError, match=r"theta must be in \[0, 45\] degrees, got 50$"):
        family1([Decimal("10"), Decimal("50")])


def test_factories_refuse_bools():
    # numpy's float cast reads True as 1.0: a bool is refused and named, whether scalar, in a sequence or a bool array
    cases = ((family1, "theta must be in"), (family2, "theta must be in"), (make_werner, "p must be in"))
    for bad, name in ((True, "True"), (np.True_, "True"), ([False, 1.0], "False"), ((1.0, np.bool_(False)), "False"),
                      (np.array([1.0, 0.5]) > 0.7, "True"), (np.array([[False]]), "False")):
        for factory, message in cases:
            with pytest.raises(ValueError, match=f"{message}.*, got {name}$"):
                factory(bad)
    # ints, numpy floats and ints and float arrays still pass, as their float values
    for good in (1, np.int64(1), np.float32(0.5), np.float64(0.5), [0, 1.0], np.array([0.0, 0.5, 1.0]), np.arange(2)):
        for factory, _ in cases:
            assert np.array_equal(factory(good), factory(np.asarray(good, dtype=float)))


def test_factories_produce_valid_states():
    for theta in THETA_GRID:
        assert qcore.validate_density(qcore.projector(family1(theta))).ok
        assert qcore.validate_density(qcore.projector(family2(theta))).ok
    for p in np.linspace(0, 1, 11):
        assert qcore.validate_density(make_werner(p)).ok


def test_family1_bob_marginal_is_incoherent():
    for theta in THETA_GRID:
        rho_b = qcore.partial_trace(qcore.projector(family1(theta)), "B")
        t2 = math.radians(2 * theta)
        assert np.allclose(rho_b, np.diag([math.cos(t2) ** 2, math.sin(t2) ** 2]), atol=1e-12)
        assert rel_entropy_coherence(rho_b).c_r == pytest.approx(0.0, abs=1e-12)


def test_family2_bob_marginal_structure_and_coherence():
    for theta in THETA_GRID:
        rho_b = qcore.partial_trace(qcore.projector(family2(theta)), "B")
        t2 = math.radians(2 * theta)
        expected = (
            math.cos(t2) ** 2 * qcore.projector(oracles.KET_X_PLUS)
            + math.sin(t2) ** 2 * qcore.projector(oracles.KET_X_MINUS)
        )
        assert np.max(np.abs(rho_b - expected)) <= 1e-12
        assert rel_entropy_coherence(rho_b).c_r == pytest.approx(oracles.family2_before(theta), abs=1e-9)


def test_maximally_coherent():
    # the uniform superpositions of 2 and 4 levels carry log2(d) bits
    assert rel_entropy_coherence(qcore.projector(oracles.KET_X_PLUS)).c_r == pytest.approx(1.0, abs=1e-12)
    assert rel_entropy_coherence(qcore.projector(np.full(4, 0.5))).c_r == pytest.approx(2.0, abs=1e-12)

