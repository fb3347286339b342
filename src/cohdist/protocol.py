"""Single-copy assisted-distillation protocol.

Alice performs a projective measurement on her qubit and broadcasts the
outcome; Bob only relabels his photons into per-outcome ensembles, which is a
free (incoherent) operation.  The module provides the measurement map, the
ensemble-averaged distillable coherence it induces on Bob, the analytic
optimal basis for pure parents, and a numerical basis optimizer for anything
else.  Only rank-1 projective measurements are considered.

Measurement and search work in Pauli (Fano / Horodecki) coordinates,
rho_AB = (I x I + a.sigma x I + I x b.sigma + sum_ij T_ij sigma_i x sigma_j) / 4,
with Alice's Bloch vector a, Bob's Bloch vector b and the correlation matrix
T.  Measuring Alice along the Bloch vector n gives outcome probabilities
p+- = (1 +- n.a) / 2 and leaves Bob with Bloch vectors
r+- = (b +- T^t n) / (2 p+-); a qubit with Bloch vector r has
C_r = h2((1 + r_z) / 2) - h2((1 + |r|) / 2).  That map (_outcomes) is the
only one: alice_measure builds Bob's matrices from it, the harness scores a
whole stack of states with it, one basis each, and the basis search scores
the theta x phi grid and then each zoom lattice in one batched call apiece.

On an exactly flat objective (the equator of a Werner state, a Bell state)
the grid argmax is decided by rounding, so the returned phi may differ from
the dense search this replaced; the value and the |n_z| accuracy do not.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import qcore

ZERO_PROB_TOL = 1e-12
GRID_RES_MAX = 1024  # the batched grid holds GRID_RES_MAX^2 Bloch vectors
ZOOM_POINTS = 17  # lattice points per axis in each zoom round of the basis search
_PAULIS = np.stack([qcore.IDENTITY_2, qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z])
# (rho.ravel() @ _PAULI_PAIRS)[4m + n] = tr[rho (s_m x s_n)]
_PAULI_PAIRS = np.einsum("mji,nlk->ikjlmn", _PAULIS, _PAULIS).reshape(16, 16)


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal single-qubit basis parametrized by a Bloch unit vector.

    The "+" ket has Bloch vector +n and phase convention
    cos(t/2)|H> + e^{i phi} sin(t/2)|V>; the "-" ket sits at -n.
    """

    bloch: tuple[float, float, float]

    def __post_init__(self):
        n = np.asarray(self.bloch, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"bloch vector must have 3 components, got {n.shape}")
        norm = float(np.linalg.norm(n))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"bloch vector must be unit length, got |n| = {norm}")
        object.__setattr__(self, "bloch", tuple(float(x / norm) + 0.0 for x in n))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "MeasurementBasis":
        """Basis with Bloch vector (sin t cos phi, sin t sin phi, cos t)."""
        st = math.sin(theta)
        return cls((st * math.cos(phi), st * math.sin(phi), math.cos(theta)))

    @property
    def angles(self) -> tuple[float, float]:
        nx, ny, nz = self.bloch
        return math.acos(min(max(nz, -1.0), 1.0)), math.atan2(ny, nx)

    @property
    def ket_plus(self) -> np.ndarray:
        theta, phi = self.angles
        return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)], dtype=complex)

    @property
    def ket_minus(self) -> np.ndarray:
        theta, phi = self.angles
        return np.array([math.sin(theta / 2.0), -math.cos(theta / 2.0) * np.exp(1j * phi)], dtype=complex)


def y_basis() -> MeasurementBasis:
    """The |y+->, |y-> basis, Bloch vector (0, 1, 0)."""
    return MeasurementBasis((0.0, 1.0, 0.0))


@dataclass(frozen=True)
class Outcome:
    label: str
    prob: float
    bob_state: np.ndarray
    zero_prob: bool = False


@dataclass(frozen=True)
class OutcomeSet:
    outcomes: tuple[Outcome, ...]

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(o.prob for o in self.outcomes)


def alice_measure(rho_ab, basis: MeasurementBasis) -> OutcomeSet:
    """Measure Alice's qubit projectively and collapse Bob accordingly.

    p_i = tr[(P_i x I) rho] and Bob's states Tr_A[(P_i x I) rho (P_i x I)] / p_i
    come from the state's Pauli coordinates (see _outcomes).  A
    zero-probability outcome is kept with prob 0, Bob state I/2 and the
    zero_prob flag set, so the outcome set shape is stable.
    """
    rho = qcore.ensure_density(rho_ab, dim=4)
    outcomes = []
    for label, (p, r) in zip("+-", _outcomes(np.array([basis.bloch]), *_pauli_coordinates(rho))):
        if p[0] > 0.0:  # _outcomes sets p = 0 below ZERO_PROB_TOL
            outcomes.append(Outcome(label, float(p[0]), qcore.bloch_state(r[0])))
        else:
            outcomes.append(Outcome(label, 0.0, qcore.IDENTITY_2 / 2.0, zero_prob=True))
    return OutcomeSet(tuple(outcomes))


def average_assisted_coherence(outcomes: OutcomeSet) -> float:
    """Ensemble average sum_i p_i C_r(bob_state_i) in bits, each C_r by _qubit_coherence of a valid qubit state."""
    probs = sum(o.prob for o in outcomes)
    if abs(probs - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {probs}, expected 1")
    total = 0.0
    for o in outcomes:
        if o.prob > 0.0:
            total += o.prob * float(_qubit_coherence(qcore.bloch_vector(qcore.ensure_density(o.bob_state, dim=2))))
    return total


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    # antipodal Bloch vectors describe the same basis; pick the representative
    # with positive y, then positive x, then positive z
    tol = 1e-12
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    flip = (y < -tol) | ((abs(y) <= tol) & ((x < -tol) | ((abs(x) <= tol) & (z < 0.0))))
    return np.where(flip[..., None], -n, n)


def _norm(v: np.ndarray) -> np.ndarray:
    # np.linalg.norm along the last axis, through the same BLAS dot, so a stack and a single vector round alike
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _pure_parent_directions(psis: np.ndarray) -> np.ndarray:
    """optimal_basis_pure's Bloch direction for each unit vector psis[..., :], before the final normalization."""
    alice = np.swapaxes(psis.reshape(*psis.shape[:-1], 2, 2), -1, -2)  # [..., k, :] = Alice's vector for Bob's |k>
    norms = _norm(alice)
    support = norms > 1e-9
    a, b = np.moveaxis(alice / np.where(support, norms, 1.0)[..., None], -1, 0)
    # Bloch vectors of the normalized Alice vectors, in numpy's scalar arithmetic (no fused multiply-add,
    # |z| by hypot, x ** 2 by pow), so a stack rounds as the single-state rule always has
    z = np.float_power(np.hypot(a.real, a.imag), 2.0) - np.float_power(np.hypot(b.real, b.imag), 2.0)
    blochs = np.stack([2.0 * (a.real * b.real + a.imag * b.imag), 2.0 * (a.real * b.imag - a.imag * b.real), z], -1)
    normal = np.cross(blochs[..., 0, :], blochs[..., 1, :])
    normal_norm = _norm(normal)
    spanned = support.all(axis=-1) & (normal_norm >= 1e-9)
    normal = _canonical_direction(normal / np.where(spanned, normal_norm, 1.0)[..., None])
    # degenerate: only one independent direction to be orthogonal to
    n0 = np.where(support[..., :1], blochs[..., 0, :], blochs[..., 1, :])
    y_perp = np.array([0.0, 1.0, 0.0]) - n0[..., 1:2] * n0
    y_norm = _norm(y_perp)
    on_y = y_norm < 1e-9  # n0 is +-y, prefer +x
    y_perp = np.where(on_y[..., None], [1.0, 0.0, 0.0], y_perp / np.where(on_y, 1.0, y_norm)[..., None])
    return np.where(spanned[..., None], normal, y_perp)


def optimal_blochs_pure(psis) -> np.ndarray:
    """optimal_basis_pure(psi).bloch, bit for bit, for each unit vector psi in a (..., 4) stack."""
    n = _pure_parent_directions(np.asarray(psis, dtype=complex))
    return n / _norm(n)[..., None] + 0.0  # as MeasurementBasis normalizes


def optimal_basis_pure(psi_ab) -> MeasurementBasis:
    """Analytic optimal Alice basis for a pure two-qubit parent state.

    Expanding |psi> = sum_k a_k |Psi_k>_A |k>_B over Bob's reference basis,
    the best von Neumann measurement is one that is unbiased against every
    (normalized, nonzero) Alice vector |Psi_k>, i.e. whose Bloch vector is
    orthogonal to theirs.  Both outcomes then leave Bob with coherence equal
    to the entropy of his dephased marginal.

    When the Alice Bloch vectors are parallel or antiparallel the orthogonality
    constraint is a circle; the tie-break picks the unit vector orthogonal to
    the first Alice vector with maximal y component, preferring +x when the
    Alice vector is +-y itself.  optimal_blochs_pure is the same rule on a
    stack of states.
    """
    psi = qcore.ensure_state_vector(psi_ab, dim=4)
    return MeasurementBasis(tuple(_pure_parent_directions(psi)))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _pauli_coordinates(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) of each state in a (..., 4, 4) stack.

    a_i = tr[rho (s_i x I)], b_j = tr[rho (I x s_j)], T_ij = tr[rho (s_i x s_j)].
    """
    lead = rho.shape[:-2]
    r = (rho.reshape(*lead, 16) @ _PAULI_PAIRS).real.reshape(*lead, 4, 4)
    return r[..., 1:, 0], r[..., 0, 1:], r[..., 1:, 1:]


def _qubit_entropy(u):
    """Entropy in bits of the spectrum ((1 + u) / 2, (1 - u) / 2), elementwise; |u| is clipped to 1."""
    u = np.minimum(np.abs(u), 1.0)
    hi, lo = (1.0 + u) / 2.0, (1.0 - u) / 2.0
    return -(hi * np.log2(hi) + lo * np.log2(np.where(lo > 0.0, lo, 1.0)))


def _qubit_coherence(r):
    """C_r of the qubit with Bloch vector r[..., :], elementwise."""
    return _qubit_entropy(r[..., 2]) - _qubit_entropy(np.linalg.norm(r, axis=-1))


def _outcomes(n: np.ndarray, a, b, t) -> list[tuple[np.ndarray, np.ndarray]]:
    """[(p+, r+), (p-, r-)]: outcome probabilities and Bob's Bloch vectors for each Alice Bloch vector n[..., :].

    n[..., m, :] is an Alice basis for the state (a, b, t)[...]: the
    coordinates' leading axes broadcast against n's axes before its last
    two.  Outcomes with p < ZERO_PROB_TOL get p = 0 and a meaningless r.
    """
    na, tn = (n @ a[..., None])[..., 0], n @ t
    outcomes = []
    for sign in (1.0, -1.0):
        p = (1.0 + sign * na) / 2.0
        kept = p >= ZERO_PROB_TOL
        r = (b[..., None, :] + sign * tn) / (2.0 * np.where(kept, p, 1.0))[..., None]
        outcomes.append((np.where(kept, p, 0.0), r))
    return outcomes


def _assisted_coherence(n: np.ndarray, a, b, t) -> np.ndarray:
    """sum_+- p+- C_r(r+-) for each Alice Bloch vector n[..., :] (see _outcomes); zero-probability outcomes add 0."""
    return sum(p * _qubit_coherence(r) for p, r in _outcomes(n, a, b, t))


def _lattice_argmax(thetas: np.ndarray, phis: np.ndarray, coords) -> tuple[int, int, float]:
    """(i, j, value) of the best basis (thetas[i], phis[j]) in one batched evaluation; ties go to the smallest (i, j)."""
    st = np.sin(thetas)[:, None]
    n = np.stack(np.broadcast_arrays(st * np.cos(phis), st * np.sin(phis), np.cos(thetas)[:, None]), axis=-1)
    values = _assisted_coherence(n, *coords)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    return int(i), int(j), float(values[i, j])


def _basis_search(rho: np.ndarray, grid_res: int, refine_iters: int):
    """Maximize the average assisted coherence of a valid rho over projective bases.

    Scores a grid_res x grid_res grid on the Bloch hemisphere (theta in
    [0, pi/2] inclusive, phi in [0, 2pi) -- antipodal bases are identical),
    then zooms: each of refine_iters rounds scores a ZOOM_POINTS^2 lattice
    spanning +-h around the running best (h starts at one grid step per
    axis), moves to its argmax only if that is strictly better, and shrinks
    h to one lattice spacing, except on an axis where the move ended on the
    lattice's edge.  Once a lattice has rounded onto a single point, the
    rounds left would score that point again without moving, so the search
    stops there.  Returns (basis, value, trace); trace holds
    ((theta, phi), value) of the running best after the grid and each round.
    """
    if not _is_int(grid_res) or not 8 <= grid_res <= GRID_RES_MAX:
        raise ValueError(f"grid_res must be an int in [8, {GRID_RES_MAX}], got {grid_res!r}")
    if not _is_int(refine_iters) or refine_iters < 0:
        raise ValueError(f"refine_iters must be an int >= 0, got {refine_iters!r}")
    coords = _pauli_coordinates(rho)
    thetas, phis = np.linspace(0.0, math.pi / 2.0, grid_res), (2.0 * math.pi / grid_res) * np.arange(grid_res)
    i, j, value = _lattice_argmax(thetas, phis, coords)
    theta, phi = float(thetas[i]), float(phis[j])
    trace = [((theta, phi), value)]
    h_t, h_p = (math.pi / 2.0) / (grid_res - 1), 2.0 * math.pi / grid_res
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    shrink = 2.0 / (ZOOM_POINTS - 1)  # one lattice spacing, in units of h
    edge = (0, ZOOM_POINTS - 1)
    for rounds_left in range(refine_iters - 1, -1, -1):
        thetas, phis = theta + h_t * offsets, phi + h_p * offsets
        i, j, v = _lattice_argmax(thetas, phis, coords)
        moved = v > value
        if moved:
            theta, phi, value = float(thetas[i]), float(phis[j]), v
        h_t *= 1.0 if moved and i in edge else shrink
        h_p *= 1.0 if moved and j in edge else shrink
        trace.append(((theta, phi), value))
        if (thetas == thetas[0]).all() and (phis == phis[0]).all():
            # the lattice has collapsed onto one point: every later round scores it again and cannot move
            trace += trace[-1:] * rounds_left
            break
    return MeasurementBasis.from_angles(theta, phi), value, trace


def optimize_basis(rho_ab, grid_res: int = 64, refine_iters: int = 30) -> tuple[MeasurementBasis, float]:
    """Numerically maximize the average assisted coherence over Alice bases.

    A grid_res x grid_res Bloch-hemisphere grid, then refine_iters zoom
    rounds of a local lattice (see _basis_search).  grid_res must be an int
    in [8, GRID_RES_MAX] and refine_iters an int >= 0; anything else raises
    ValueError.  Returns the best basis found and its value.
    """
    basis, value, _ = _basis_search(qcore.ensure_density(rho_ab, dim=4), grid_res, refine_iters)
    return basis, value
