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
only one.  It returns both outcomes stacked on a leading axis of 2, and the
leading axes of n broadcast against the state's: alice_measure builds Bob's
matrices from it, the harness scores a whole stack of states with it along
y, and the basis search scores the theta x phi grid and then each zoom
lattice in one batched call apiece.

On an exactly flat objective (the equator of a Werner state, a Bell state)
the grid argmax is decided by rounding, so the returned phi may differ from
the dense search this replaced; the value and the |n_z| accuracy do not.
"""

import math
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
    """A rank-1 projective qubit measurement, fixed by its Bloch unit vector n.

    Outcome +- projects onto (I +- n.sigma) / 2.
    """

    bloch: tuple[float, float, float]

    def __post_init__(self):
        n = np.asarray(self.bloch, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"bloch vector must have 3 components, got {n.shape}")
        norm = float(np.linalg.norm(n))
        if not abs(norm - 1.0) <= 1e-10:  # a nan norm fails too
            raise ValueError(f"bloch vector must be unit length, got |n| = {norm}")
        object.__setattr__(self, "bloch", tuple(float(x / norm) + 0.0 for x in n))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "MeasurementBasis":
        """Basis with Bloch vector (sin t cos phi, sin t sin phi, cos t)."""
        st = math.sin(theta)
        return cls((st * math.cos(phi), st * math.sin(phi), math.cos(theta)))


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
    p, r = _outcomes(np.array(basis.bloch), *_pauli_coordinates(rho))
    return OutcomeSet(tuple(
        Outcome(label, p_k, qcore.bloch_state(r_k)) if p_k > 0.0  # _outcomes sets p = 0 below ZERO_PROB_TOL
        else Outcome(label, 0.0, qcore.IDENTITY_2 / 2.0, zero_prob=True)
        for label, p_k, r_k in zip("+-", p.tolist(), r)
    ))


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


def optimal_basis_pure(psi_ab) -> MeasurementBasis:
    """Analytic optimal Alice basis for a pure two-qubit parent state.

    Expanding |psi> = sum_k a_k |Psi_k>_A |k>_B over Bob's reference basis,
    the best von Neumann measurement is one that is unbiased against every
    (normalized, nonzero) Alice vector |Psi_k>, i.e. whose Bloch vector is
    orthogonal to theirs.  Both outcomes then leave Bob with coherence equal
    to the entropy of his dephased marginal.  Two independent Alice Bloch
    vectors fix it as their normalized cross product; of its two signs (one
    basis) the rule takes y > 0, then x > 0, then z >= 0.  For both of the
    paper's pure families that is y at every theta, the basis the harness
    measures along.

    When the Alice Bloch vectors are parallel or antiparallel the orthogonality
    constraint is a circle; the tie-break picks the unit vector orthogonal to
    the first Alice vector with maximal y component, preferring +x when the
    Alice vector is +-y itself.
    """
    psi = qcore.ensure_state_vector(psi_ab)
    blochs = []
    for alice in psi.reshape(2, 2).T:  # Alice's vector for Bob's |H>, then |V>
        norm = float(np.linalg.norm(alice))
        if norm > 1e-9:
            a, b = alice / norm
            ab = np.conj(a) * b
            blochs.append(np.array([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2]))
    if len(blochs) == 2:
        normal = np.cross(*blochs)
        norm = float(np.linalg.norm(normal))
        if norm >= 1e-9:
            x, y, z = n = normal / norm
            tol = 1e-12
            flip = y < -tol or (abs(y) <= tol and (x < -tol or (abs(x) <= tol and z < 0.0)))
            return MeasurementBasis(tuple(-n if flip else n))
    n0 = blochs[0]
    y_perp = np.array([0.0, 1.0, 0.0]) - n0[1] * n0
    norm = float(np.linalg.norm(y_perp))
    return MeasurementBasis(tuple(y_perp / norm) if norm >= 1e-9 else (1.0, 0.0, 0.0))


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


def _outcomes(n: np.ndarray, a, b, t) -> tuple[np.ndarray, np.ndarray]:
    """(p, r): p[k, ...] and r[k, ..., :] are the probability of Alice's outcome k (0 for +, 1 for -) and Bob's Bloch vector.

    n[..., :] is Alice's Bloch vector for the state (a, b, t)[...]: n's
    leading axes broadcast against the coordinates' leading axes.  Outcomes
    with p < ZERO_PROB_TOL get p = 0 and a meaningless r.
    """
    row = n[..., None, :]  # n as a 1 x 3 matrix, so that only the leading axes broadcast
    na, tn = (row @ a[..., None])[..., 0, 0], (row @ t)[..., 0, :]
    sign = np.array([1.0, -1.0]).reshape(2, *[1] * na.ndim)
    p = (1.0 + sign * na) / 2.0
    kept = p >= ZERO_PROB_TOL
    r = (b + sign[..., None] * tn) / (2.0 * np.where(kept, p, 1.0))[..., None]
    return np.where(kept, p, 0.0), r


def _assisted_coherence(n: np.ndarray, a, b, t) -> np.ndarray:
    """sum_+- p+- C_r(r+-) for each Alice Bloch vector n[..., :] (see _outcomes); zero-probability outcomes add 0."""
    p, r = _outcomes(n, a, b, t)
    return sum(p * _qubit_coherence(r))


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
    if not 8 <= qcore.as_int("grid_res", grid_res) <= GRID_RES_MAX:
        raise ValueError(f"grid_res must be an int in [8, {GRID_RES_MAX}], got {grid_res!r}")
    if qcore.as_int("refine_iters", refine_iters) < 0:
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
