"""Exact factories for the state families used in the experiments.

family1, family2 and make_werner are stack-native: a scalar parameter gives
one state, a (4,) ket or a (4, 4) density matrix, and a 1-d array of N
parameters gives the (N, 4) or (N, 4, 4) stack from one numpy pass (numpy's
cos and sin, the angle rounded as math.radians(2.0 * t)). The bits are per
numpy build, like the analytic path's; the tests check that a stack has the
bits of N single calls and that cos and sin round as libm's. A parameter
outside its range (nan, inf, 1j, 10**400, None or a bool included) raises a
ValueError naming the first such parameter.
"""

import math

import numpy as np

from . import qcore


def _in_range(values, lo: float, hi: float, what: str) -> np.ndarray:
    """values as a float array, or a ValueError naming the first that is not a number in [lo, hi] (nan and bools included)."""
    passed = np.asarray(values, dtype=object).ravel().tolist()  # as passed, to name one: an int parameter reads 46, not 46.0
    try:
        x = np.asarray(values, dtype=float)
        ok = ((lo <= x) & (x <= hi)).ravel()
    except (TypeError, ValueError, OverflowError):  # 1j, 10**400, an object: no float array, so each value is tested as passed
        x, ok = None, np.array([qcore.is_real_type(type(v)) and lo <= v <= hi for v in passed])
    if not all(map(qcore.is_real_type, set(map(type, passed)))):  # numpy's cast reads "0.5" as 0.5, which passes, and True as 1.0
        ok &= [not isinstance(v, (bool, np.bool_)) for v in passed]
    if not ok.all():
        raise ValueError(f"{what}, got {passed[np.argmin(ok)]}")
    return x


def _cos_sin(theta_deg) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2t, sin 2t) for each preparation angle t in [0, 45] degrees."""
    t2 = np.radians(2.0 * _in_range(theta_deg, 0.0, 45.0, "theta must be in [0, 45] degrees"))  # rounds as math.radians
    return np.cos(t2), np.sin(t2)


def family1(theta_deg) -> np.ndarray:
    """cos(2t)|HH> + sin(2t)|VV>, with t the preparation angle in degrees."""
    c, s = _cos_sin(theta_deg)
    psi = np.zeros(c.shape + (4,), dtype=complex)
    psi[..., 0], psi[..., 3] = c, s
    return psi


def family2(theta_deg) -> np.ndarray:
    """(cos(2t)|HH> + cos(2t)|HV> + sin(2t)|VH> - sin(2t)|VV>) / sqrt(2)."""
    c, s = _cos_sin(theta_deg)
    psi = np.empty(c.shape + (4,), dtype=complex)
    psi[..., 0], psi[..., 1], psi[..., 2], psi[..., 3] = c, c, s, -s
    return psi / math.sqrt(2.0)


def singlet() -> np.ndarray:
    """(|HV> - |VH>) / sqrt(2)."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


_SINGLET_PROJECTOR = qcore.projector(singlet())
_QUARTER_IDENTITY = np.eye(4, dtype=complex) / 4.0


def make_werner(p) -> np.ndarray:
    """p |S><S| + (1-p) I/4 with S the singlet; entangled iff p > 1/3."""
    p = _in_range(p, 0.0, 1.0, "p must be in [0, 1]")[..., None, None]
    return p * _SINGLET_PROJECTOR + (1.0 - p) * _QUARTER_IDENTITY

