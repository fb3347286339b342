"""Single-copy assisted-distillation protocol.

Alice performs a projective measurement on her qubit and broadcasts the
outcome; Bob only relabels his photons into per-outcome ensembles, which is a
free (incoherent) operation.  The module provides the measurement map, the
ensemble-averaged distillable coherence it induces on Bob, the analytic
optimal basis for pure parents, and a numerical basis optimizer for anything
else.  Only rank-1 projective measurements are considered.

The basis search works in Pauli (Fano / Horodecki) coordinates,
rho_AB = (I x I + a.sigma x I + I x b.sigma + sum_ij T_ij sigma_i x sigma_j) / 4,
with Alice's Bloch vector a, Bob's Bloch vector b and the correlation matrix
T.  Measuring Alice along the Bloch vector n gives outcome probabilities
p+- = (1 +- n.a) / 2 and leaves Bob with Bloch vectors
r+- = (b +- T^t n) / (2 p+-); a qubit with Bloch vector r has
C_r = h2((1 + r_z) / 2) - h2((1 + |r|) / 2).  (a, b, T) are computed once
per search.  The whole theta x phi grid is then scored in one batched numpy
evaluation, and the golden-section refinement evaluates the same closed form
one basis at a time in plain floats.  The dense measurement map (`_measure`)
is kept for `alice_measure`, whose Bob states the harness reports.

On an exactly flat objective (the equator of a Werner state, a Bell state)
the grid argmax is decided by rounding, so the returned phi may differ from
the dense search this replaced; the value and the |n_z| accuracy do not.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import qcore

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ZERO_PROB_TOL = 1e-12
GRID_RES_MAX = 1024  # the batched grid holds GRID_RES_MAX^2 Bloch vectors
_PAULIS = np.stack([qcore.IDENTITY_2, qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z])


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


def bloch_vector(ket) -> np.ndarray:
    """Bloch vector of a single-qubit pure state."""
    a, b = np.asarray(ket, dtype=complex)
    cross = np.conj(a) * b
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2])


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

    Outcome probabilities are tr[(P_i x I) rho]; Bob's conditional states are
    Tr_A[(P_i x I) rho (P_i x I)] / p_i.  A zero-probability outcome is kept
    with prob 0, Bob state I/2 and the zero_prob flag set, so the outcome set
    shape is stable.
    """
    rho = qcore.ensure_density(rho_ab, dim=4)
    return _measure(rho, basis)


def _measure(rho: np.ndarray, basis: MeasurementBasis) -> OutcomeSet:
    outcomes = []
    for label, ket in (("+", basis.ket_plus), ("-", basis.ket_minus)):
        proj = np.kron(qcore.projector(ket), qcore.IDENTITY_2)
        m = proj @ rho @ proj
        p = float(m.trace().real)
        if p < ZERO_PROB_TOL:
            outcomes.append(Outcome(label, 0.0, np.eye(2, dtype=complex) / 2.0, zero_prob=True))
            continue
        bob = np.trace(m.reshape(2, 2, 2, 2), axis1=0, axis2=2) / p
        bob = (bob + bob.conj().T) / 2.0
        bob /= bob.trace().real
        outcomes.append(Outcome(label, p, bob))
    return OutcomeSet(tuple(outcomes))


def average_assisted_coherence(outcomes: OutcomeSet) -> float:
    """Ensemble average sum_i p_i C_r(bob_state_i) in bits."""
    probs = sum(o.prob for o in outcomes)
    if abs(probs - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {probs}, expected 1")
    total = 0.0
    for o in outcomes:
        if o.prob > 0.0:
            c_r = qcore.shannon_entropy(np.diag(o.bob_state).real) - qcore.von_neumann_entropy(o.bob_state)
            total += o.prob * c_r
    return total


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    # antipodal Bloch vectors describe the same basis; pick the representative
    # with positive y, then positive x, then positive z
    tol = 1e-12
    if n[1] < -tol or (abs(n[1]) <= tol and (n[0] < -tol or (abs(n[0]) <= tol and n[2] < 0.0))):
        return -n
    return n


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
    Alice vector is +-y itself.
    """
    psi = qcore.ensure_state_vector(psi_ab, dim=4)
    amps = psi.reshape(2, 2)  # (alice, bob)
    blochs = []
    for k in (0, 1):
        a_k = amps[:, k]
        norm = float(np.linalg.norm(a_k))
        if norm > 1e-9:
            blochs.append(bloch_vector(a_k / norm))
    if not blochs:
        raise qcore.InvalidStateError("state has no support on Bob's reference basis")
    if len(blochs) == 2:
        cross = np.cross(blochs[0], blochs[1])
        norm = float(np.linalg.norm(cross))
        if norm >= 1e-9:
            n = _canonical_direction(cross / norm)
            return MeasurementBasis(tuple(n))
    # degenerate: only one independent direction to be orthogonal to
    n0 = blochs[0]
    y_perp = np.array([0.0, 1.0, 0.0]) - n0[1] * n0
    norm = float(np.linalg.norm(y_perp))
    if norm < 1e-9:  # n0 is +-y, prefer +x
        return MeasurementBasis((1.0, 0.0, 0.0))
    return MeasurementBasis(tuple(y_perp / norm))


def _golden_max(f, lo: float, hi: float, steps: int = 16) -> float:
    """Argmax of f on [lo, hi] by golden-section shrink (f assumed unimodal)."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _pauli_coordinates(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T): a_i = tr[rho (s_i x I)], b_j = tr[rho (I x s_j)], T_ij = tr[rho (s_i x s_j)]."""
    r = np.einsum("ikjl,mji,nlk->mn", rho.reshape(2, 2, 2, 2), _PAULIS, _PAULIS).real
    return r[1:, 0], r[0, 1:], r[1:, 1:]


def _qubit_entropy(u):
    """Entropy in bits of the spectrum ((1 + u) / 2, (1 - u) / 2), elementwise; |u| is clipped to 1."""
    u = np.minimum(np.abs(u), 1.0)
    hi, lo = (1.0 + u) / 2.0, (1.0 - u) / 2.0
    return -(hi * np.log2(hi) + lo * np.log2(np.where(lo > 0.0, lo, 1.0)))


def _assisted_coherence(n: np.ndarray, a, b, t) -> np.ndarray:
    """sum_+- p+- C_r(r+-) for each Alice Bloch vector n[..., :]; outcomes with p < ZERO_PROB_TOL add 0."""
    na, tn = n @ a, n @ t
    total = np.zeros(na.shape)
    for sign in (1.0, -1.0):
        p = (1.0 + sign * na) / 2.0
        kept = p >= ZERO_PROB_TOL
        r = (b + sign * tn) / (2.0 * np.where(kept, p, 1.0))[..., None]
        total += np.where(kept, p * (_qubit_entropy(r[..., 2]) - _qubit_entropy(np.linalg.norm(r, axis=-1))), 0.0)
    return total


def _qubit_entropy_at(u: float) -> float:
    u = min(abs(u), 1.0)
    hi, lo = (1.0 + u) / 2.0, (1.0 - u) / 2.0
    return -(hi * math.log2(hi) + (lo * math.log2(lo) if lo > 0.0 else 0.0))


def _assisted_coherence_at(theta: float, phi: float, a: list, b: list, t: list) -> float:
    """_assisted_coherence of the one basis at (theta, phi), in plain floats."""
    st = math.sin(theta)
    n = (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
    na = n[0] * a[0] + n[1] * a[1] + n[2] * a[2]
    total = 0.0
    for sign in (1.0, -1.0):
        p = (1.0 + sign * na) / 2.0
        if p >= ZERO_PROB_TOL:
            r = [(bj + sign * (n[0] * c0 + n[1] * c1 + n[2] * c2)) / (2.0 * p) for bj, c0, c1, c2 in zip(b, *t)]
            total += p * (_qubit_entropy_at(r[2]) - _qubit_entropy_at(math.hypot(*r)))
    return total


def _basis_search(rho: np.ndarray, grid_res: int, refine_iters: int):
    """Maximize the average assisted coherence of a valid rho over projective bases.

    Scores a grid_res x grid_res grid on the Bloch hemisphere (theta in
    [0, pi/2] inclusive, phi in [0, 2pi) -- antipodal bases are identical) in
    one batched evaluation, then refines by per-coordinate golden-section
    shrink around the running best.  The grid argmax is deterministic with
    ties broken toward the lexicographically smallest (theta, phi).  Returns
    (basis, value, trace) where value is the best objective seen anywhere and
    trace records the search path.
    """
    if not _is_int(grid_res) or not 8 <= grid_res <= GRID_RES_MAX:
        raise ValueError(f"grid_res must be an int in [8, {GRID_RES_MAX}], got {grid_res!r}")
    if not _is_int(refine_iters) or refine_iters < 0:
        raise ValueError(f"refine_iters must be an int >= 0, got {refine_iters!r}")
    coords = _pauli_coordinates(rho)
    thetas = np.linspace(0.0, math.pi / 2.0, grid_res)
    phis = (2.0 * math.pi / grid_res) * np.arange(grid_res)
    st = np.sin(thetas)[:, None]
    n = np.stack(np.broadcast_arrays(st * np.cos(phis), st * np.sin(phis), np.cos(thetas)[:, None]), axis=-1)
    values = _assisted_coherence(n, *coords)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    best = {"theta": float(thetas[i]), "phi": float(phis[j]), "value": float(values[i, j])}
    floats = [c.tolist() for c in coords]

    def f(theta, phi):
        v = _assisted_coherence_at(theta, phi, *floats)
        if v > best["value"]:
            best.update(theta=theta, phi=phi, value=v)
        return v

    trace = [((best["theta"], best["phi"]), best["value"])]
    cur_t, cur_p = best["theta"], best["phi"]
    h_t = (math.pi / 2.0) / (grid_res - 1)
    h_p = 2.0 * math.pi / grid_res
    for _ in range(refine_iters):
        cur_t = _golden_max(lambda t: f(t, cur_p), cur_t - h_t, cur_t + h_t)
        cur_p = _golden_max(lambda p: f(cur_t, p), cur_p - h_p, cur_p + h_p)
        trace.append(((cur_t, cur_p), f(cur_t, cur_p)))
        h_t *= 0.7
        h_p *= 0.7
    return MeasurementBasis.from_angles(best["theta"], best["phi"]), best["value"], trace


def optimize_basis(rho_ab, grid_res: int = 64, refine_iters: int = 30) -> tuple[MeasurementBasis, float]:
    """Numerically maximize the average assisted coherence over Alice bases.

    A grid_res x grid_res Bloch-hemisphere grid, scored in one batched
    evaluation, then refine_iters rounds of golden-section refinement.
    grid_res must be an int in [8, GRID_RES_MAX] and refine_iters an int
    >= 0; anything else raises ValueError.  Returns the basis with the best
    value seen anywhere in the search, and that value.
    """
    basis, value, _ = _basis_search(qcore.ensure_density(rho_ab, dim=4), grid_res, refine_iters)
    return basis, value
