"""Single-copy assisted-distillation protocol.

Alice measures her qubit projectively (rank-1 only) and broadcasts the outcome; Bob only relabels
his photons into per-outcome ensembles, a free (incoherent) operation.  The module provides the
measurement map, the ensemble-averaged distillable coherence it induces on Bob, the analytic optimal
basis for pure parents, and a numerical basis search for any state.

Measurement and search work in Pauli (Fano / Horodecki) coordinates, with Alice's Bloch vector a, Bob's b and the
correlation matrix T: rho_AB = (I x I + a.sigma x I + I x b.sigma + sum_ij T_ij sigma_i x sigma_j) / 4.  Measuring
Alice along the Bloch vector n gives outcome probabilities p+- = (1 +- n.a) / 2 and leaves Bob with Bloch vectors
r+- = (b +- T^t n) / (2 p+-); a qubit with Bloch vector r has C_r = h2((1 + r_z) / 2) - h2((1 + |r|) / 2).  That map
(_outcomes) is the only one.  It stacks both outcomes on a leading axis of 2, and n's leading axes broadcast against
the state's: alice_measure builds Bob's matrices from it, the harness scores a stack of states with it along y, and
the basis search scores its theta x phi grid (built once per resolution) in one call, then each Newton step's one
basis in Python floats by _local_model, the map's closed form with tangent gradient and Hessian.  r[..., j] view one
components-first buffer, |r| (_norm) is summed as (x^2 + y^2) + z^2 like np.linalg.norm(r, axis=-1), and on an exactly
flat objective (a Werner state's equator, a Bell state) rounding picks the grid argmax and where the steps stop.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore

ZERO_PROB_TOL = 1e-12
GRID_RES_DEFAULT, GRID_RES_MAX = 16, 1024  # optimize_basis' and coa_numeric's grid_res; a grid holds at most GRID_RES_MAX^2 bases
NEWTON_GTOL, NEWTON_XTOL, RIDGE_STEP, RIDGE_FTOL = 1e-7, 1e-9, 0.5, 2e-14  # the basis search's stop rules (see _basis_search)
_PAULIS = np.stack([qcore.IDENTITY_2, qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z])
# (rho.ravel() @ _PAULI_PAIRS)[4m + n] = tr[rho (s_m x s_n)]
_PAULI_PAIRS = np.einsum("mji,nlk->ikjlmn", _PAULIS, _PAULIS).reshape(16, 16)


@dataclass(frozen=True)
class MeasurementBasis:
    """A rank-1 projective qubit measurement, fixed by its Bloch unit vector n: outcome +- projects onto (I +- n.sigma) / 2."""

    bloch: tuple[float, float, float]

    def __post_init__(self):
        try:
            n = np.asarray(self.bloch, dtype=float)
        except (TypeError, OverflowError) as e:  # a complex component, an int past float range, an object
            raise ValueError(f"bloch vector must have 3 real components, got {self.bloch!r}") from e
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

    p_i = tr[(P_i x I) rho] and Bob's states Tr_A[(P_i x I) rho (P_i x I)] / p_i come from the state's
    Pauli coordinates (see _outcomes).  A zero-probability outcome is kept with prob 0, Bob state I/2
    and the zero_prob flag set, so the outcome set shape is stable."""
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
    return sum((o.prob * float(_qubit_coherence(qcore.bloch_vector(qcore.ensure_density(o.bob_state, dim=2))))
                for o in outcomes if o.prob > 0.0), 0.0)


def optimal_basis_pure(psi_ab) -> MeasurementBasis:
    """Analytic optimal Alice basis for a pure two-qubit parent state.

    Expanding |psi> = sum_k a_k |Psi_k>_A |k>_B over Bob's reference basis, the best von Neumann
    measurement is unbiased against every (normalized, nonzero) Alice vector |Psi_k>, i.e. its Bloch
    vector is orthogonal to theirs; both outcomes then leave Bob with coherence equal to the entropy
    of his dephased marginal.  Two independent Alice Bloch vectors fix it as their normalized cross
    product, signed so that y > 0, then x > 0, then z >= 0: y at every theta for both of the paper's
    pure families, the basis the harness measures along.  When the Alice Bloch vectors are
    (anti)parallel the constraint is a circle; the tie-break picks the unit vector orthogonal to the
    first one with maximal y component, preferring +x when that vector is +-y itself.
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
    """(a, b, T) of each state in a (..., 4, 4) stack: a_i = tr[rho (s_i x I)], b_j = tr[rho (I x s_j)], T_ij = tr[rho (s_i x s_j)]."""
    lead = rho.shape[:-2]
    r = (rho.reshape(*lead, 16) @ _PAULI_PAIRS).real.reshape(*lead, 4, 4)
    return r[..., 1:, 0], r[..., 0, 1:], r[..., 1:, 1:]


def _qubit_entropy(u):
    """Entropy in bits of the spectrum ((1 + u) / 2, (1 - u) / 2), elementwise; |u| is clipped to 1."""
    u = np.minimum(np.abs(u), 1.0)
    hi, lo = (1.0 + u) / 2.0, (1.0 - u) / 2.0
    return -(hi * np.log2(hi) + lo * np.log2(np.where(lo > 0.0, lo, 1.0)))


def _norm(r):
    """|r[..., :]| elementwise, summed as (x^2 + y^2) + z^2 from component views: np.linalg.norm(r, axis=-1)'s bits."""
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _qubit_coherence(r):
    """C_r of the qubit with Bloch vector r[..., :], elementwise."""
    return _qubit_entropy(r[..., 2]) - _qubit_entropy(_norm(r))


def _outcomes(n: np.ndarray, a, b, t) -> tuple[np.ndarray, np.ndarray]:
    """(p, r): p[k, ...] and r[k, ..., :] are the probability of Alice's outcome k (0 for +, 1 for -) and Bob's Bloch vector.

    n[..., :] is Alice's Bloch vector for the state (a, b, t)[...]; n's leading axes broadcast against the coordinates'.
    For one state and a grid of n, n.a and T^t n are one M x 3 matrix product, else one 1 x 3 product per basis, so
    each state of a stack gets its own bits.  r views one (3, 2, ...) buffer, each component (b_j +- (T^t n)_j) / (2 p+-)
    filled in one pass, bit for bit a (..., 3) broadcast.  Outcomes with p < ZERO_PROB_TOL get p = 0 and a meaningless r."""
    if n.ndim > 1 and a.ndim == 1:
        na, tn = (n @ a[:, None])[..., 0], n @ t
    else:
        na, tn = (n[..., None, :] @ a[..., None])[..., 0, 0], (n[..., None, :] @ t)[..., 0, :]
    sign = np.array([1.0, -1.0]).reshape(2, *[1] * na.ndim)
    p = (1.0 + sign * na) / 2.0
    kept = p >= ZERO_PROB_TOL
    d, r = 2.0 * np.where(kept, p, 1.0), np.empty((3, *p.shape))
    for j in range(3):
        np.divide(b[..., j] + sign * tn[..., j], d, out=r[j])
    return np.where(kept, p, 0.0), r.transpose(*range(1, r.ndim), 0)  # np.moveaxis(r, 0, -1), without its ~3 us


def _assisted_coherence(n: np.ndarray, a, b, t) -> np.ndarray:
    """sum_+- p+- C_r(r+-) for each Alice Bloch vector n[..., :] (see _outcomes); zero-probability outcomes add 0."""
    p, r = _outcomes(n, a, b, t)
    return sum(p * _qubit_coherence(r))


def _entropy(u: float) -> float:
    """_qubit_entropy of one Python float, through libm's log2."""
    hi, lo = (1.0 + min(abs(u), 1.0)) / 2.0, (1.0 - min(abs(u), 1.0)) / 2.0
    return -(hi * math.log2(hi) + (lo * math.log2(lo) if lo > 0.0 else 0.0))


def _local_model(theta: float, phi: float, coords):
    """(n, frame, value, gradient, Hessian) of the search objective f at the basis (theta, phi), in Python floats.

    coords is a state's (a, b, T) as 3 and 3 x 3 sequences (_basis_search passes them .tolist()-ed).  frame holds
    e_theta and e_phi at n.  Gradient and Hessian are those of g(x) = f((n + x frame) / |n + x frame|) at x = 0, in
    closed form: frame grad f and frame Hess f frame^t - (n . grad f) I.  Per outcome +-, with d = 1 +- n.a, r = (b +-
    T^t n) / d, s = |r| and M = T - a r^t (its rows e^t M: e for e_theta, f for e_phi), f gains d C_r(r) / 2, grad f
    gains +-[a C_r(r) + M grad C_r(r)] / 2 and Hess f gains M Hess C_r(r) M^t / (2 d), where ln 2 grad C_r = atanh(s) r
    / s - atanh(r_z) e_z and ln 2 Hess C_r = atanh(s) / s (I - r r^t / s^2) + r r^t / (s^2 (1 - s^2)) - e_z e_z^t / (1 -
    r_z^2).  s and |r_z| are clipped at 1 - 2^-53, so a pure outcome's terms stay finite, and a zero-probability outcome adds 0."""
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    n, frame, top, ln2 = (st * cp, st * sp, ct), ((ct * cp, ct * sp, -st), (-sp, cp, 0.0)), 1.0 - 2.0**-53, math.log(2.0)
    (a0, a1, a2), (b0, b1, b2), ((t00, t01, t02), (t10, t11, t12), (t20, t21, t22)) = coords
    (u0, u1, u2, ua), (v0, v1, v2, va), (n0, n1, n2, na) = [(x * t00 + y * t10 + z * t20, x * t01 + y * t11 + z * t21,
        x * t02 + y * t12 + z * t22, x * a0 + y * a1 + z * a2) for x, y, z in (*frame, n)]  # (v^t T, v . a), v = e_theta, e_phi, n
    value = gt = gp = gn = h00 = h01 = h11 = 0.0
    for sign in (1.0, -1.0):
        p = (1.0 + sign * na) / 2.0
        if p < ZERO_PROB_TOL:
            continue
        x, y, z = (b0 + sign * n0) / (2.0 * p), (b1 + sign * n1) / (2.0 * p), (b2 + sign * n2) / (2.0 * p)
        s = math.sqrt(x * x + y * y + z * z)
        sc, zc = min(s, top), max(-top, min(z, top))
        k, az = math.atanh(sc) / s if s > 0.0 else 1.0, math.atanh(zc)  # atanh(s) / s is 1 at s = 0
        w, zz = (1.0 / (1.0 - sc * sc) - k) / (s * s) if s > 0.0 else 0.0, 1.0 / (1.0 - zc * zc)
        e0, e1, e2, f0, f1, f2, nz = u0 - ua * x, u1 - ua * y, u2 - ua * z, v0 - va * x, v1 - va * y, v2 - va * z, n2 - na * z
        er, fr, nr = e0 * x + e1 * y + e2 * z, f0 * x + f1 * y + f2 * z, (n0 - na * x) * x + (n1 - na * y) * y + nz * z  # v^t M r
        c, d = _entropy(z) - _entropy(s), 4.0 * p * ln2
        value += p * c
        gt += sign * (ua * c + (k * er - az * e2) / ln2) / 2.0
        gp += sign * (va * c + (k * fr - az * f2) / ln2) / 2.0
        gn += sign * (na * c + (k * nr - az * nz) / ln2) / 2.0
        h00 += (k * (e0 * e0 + e1 * e1 + e2 * e2) + w * er * er - zz * e2 * e2) / d
        h01 += (k * (e0 * f0 + e1 * f1 + e2 * f2) + w * er * fr - zz * e2 * f2) / d
        h11 += (k * (f0 * f0 + f1 * f1 + f2 * f2) + w * fr * fr - zz * f2 * f2) / d
    return n, frame, value, (gt, gp), ((h00 - gn, h01), (h01, h11 - gn))


@functools.lru_cache(maxsize=1)  # the last resolution's only: at most GRID_RES_MAX^2 Bloch vectors stay alive
def _hemisphere(grid_res: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (thetas, phis, grid) of the search: grid[i, j] is the Bloch vector at (thetas[i], phis[j])."""
    thetas, phis = np.linspace(0.0, math.pi / 2.0, grid_res), (2.0 * math.pi / grid_res) * np.arange(grid_res)
    st = np.sin(thetas)[:, None]
    grid = np.stack(np.broadcast_arrays(st * np.cos(phis), st * np.sin(phis), np.cos(thetas)[:, None]), axis=-1)
    thetas.flags.writeable = phis.flags.writeable = grid.flags.writeable = False
    return thetas, phis, grid


def _basis_search(rho: np.ndarray, grid_res: int, refine_iters: int):
    """Maximize the average assisted coherence of a valid rho over projective bases.

    Scores a grid_res x grid_res grid on the Bloch hemisphere (theta in [0, pi/2], phi in [0, 2pi); ties go to
    the smallest (theta, phi)), then takes up to refine_iters modified Newton steps on the sphere (Absil, Mahony
    & Sepulchre, Optimization Algorithms on Matrix Manifolds, ch. 6): |H|^-1 g in _local_model's frame, with |eigenvalues|
    floored at 1e-8 so that it goes uphill, halved until the value does not fall; each step, 2 x 2 eigenprojector
    included, runs in Python floats and scores one basis.  Once |g| <= NEWTON_GTOL (a flat top, or a flat ridge between
    near-equal basins) a step is capped at RIDGE_STEP, never halved, kept only if the value does not fall, and ends the
    search unless it raised the value by more than RIDGE_FTOL, above a pure parent's ~1.3e-14 rounding; a step under
    NEWTON_XTOL ends it untaken.  Returns (basis, value, trace, converged): trace is ((theta, phi), value) after grid
    and steps; converged, |g| <= NEWTON_GTOL at basis, is local: it speaks of the one climb from the grid argmax."""
    if not 8 <= qcore.as_int("grid_res", grid_res) <= GRID_RES_MAX:
        raise ValueError(f"grid_res must be an int in [8, {GRID_RES_MAX}], got {grid_res!r}")
    if qcore.as_int("refine_iters", refine_iters) < 0:
        raise ValueError(f"refine_iters must be an int >= 0, got {refine_iters!r}")
    coords, (thetas, phis, grid) = _pauli_coordinates(rho), _hemisphere(int(grid_res))
    values = _assisted_coherence(grid, *coords)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    theta, phi, value = float(thetas[i]), float(phis[j]), float(values[i, j])
    trace, coords = [((theta, phi), value)], [x.tolist() for x in coords]
    n, frame, _, grad, hess = _local_model(theta, phi, coords)
    grad_size = math.hypot(*grad)  # each |grad| and |step| once, for the value it measures
    for _ in range(refine_iters):
        ((h00, h01), (_, h11)), (g0, g1) = hess, grad
        mid, half = (h00 + h11) / 2.0, math.hypot((h00 - h11) / 2.0, h01)
        low, width = mid - half, 2.0 * half  # (u0, u1) = P grad, P = (hess - low I) / width the eigenprojector of mid + half
        u0, u1 = (((h00 - low) * g0 + h01 * g1) / width, (h01 * g0 + (h11 - low) * g1) / width) if half > 0.0 else (0.0, 0.0)
        lo, hi = max(abs(low), 1e-8), max(abs(mid + half), 1e-8)
        s0, s1 = (g0 - u0) / lo + u0 / hi, (g1 - u1) / lo + u1 / hi
        ridge, start, size = grad_size <= NEWTON_GTOL, value, math.hypot(s0, s1)
        if ridge and size > RIDGE_STEP:
            s0, s1, size = s0 * (RIDGE_STEP / size), s1 * (RIDGE_STEP / size), RIDGE_STEP
        while size > NEWTON_XTOL:
            x, y, z = [m + s0 * e + s1 * f for m, e, f in zip(n, *frame)]
            angles = math.atan2(math.hypot(x, y), z), math.atan2(y, x)
            model = _local_model(*angles, coords)
            if model[2] >= value:
                (theta, phi), (n, frame, value, grad, hess) = angles, model
                grad_size = math.hypot(*grad)
                trace.append((angles, value))
            if model[2] >= value or ridge:  # kept; or a ridge step, which is never halved
                break
            s0, s1, size = s0 / 2.0, s1 / 2.0, size / 2.0  # all exact
        if (ridge and value - start <= RIDGE_FTOL) or size <= NEWTON_XTOL:
            break
    return MeasurementBasis.from_angles(theta, phi), value, trace, bool(grad_size <= NEWTON_GTOL)


def optimize_basis(rho_ab, grid_res: int = GRID_RES_DEFAULT, refine_iters: int = 30) -> tuple[MeasurementBasis, float]:
    """Numerically maximize the average assisted coherence over Alice bases: the best basis found and its value.

    A grid_res x grid_res Bloch-hemisphere grid (16 x 16 by default), then up to refine_iters Newton steps (see
    _basis_search).  grid_res must be an int in [8, GRID_RES_MAX] and refine_iters an int >= 0, or ValueError is raised."""
    basis, value, _, _ = _basis_search(qcore.ensure_density(rho_ab, dim=4), grid_res, refine_iters)
    return basis, value
