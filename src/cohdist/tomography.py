"""Simulated Pauli-basis photon counting for a single qubit, plus state
reconstruction by linear inversion and by closed-form maximum likelihood.

Maximum likelihood
------------------
The Pauli likelihood separates by axis, so the qubit MLE is closed-form (see
reconstruct_mle).  ESTIMATOR_ID names it in harness output metadata.

Reproducibility contract
------------------------
All randomness comes from splitmix64, a counter-based 64-bit generator:
stream element k is mix64(seed + (k+1) * 0x9E3779B97F4A7C15) where mix64 is
the splitmix64 finalizer.  Uniform doubles are (u64 >> 11) * 2**-53.  Each
Pauli basis uses its own stream derived as seed XOR mix64 of the basis index,
and exactly one uniform is consumed per binomial draw, so identical
(state, shots, seed) always give bit-identical counts.  The algorithm
identifier PRNG_ID is recorded in harness output metadata.

Binomial sampling uses exact CDF inversion (k = min{k : F(k) >= u}) for
shots <= 10_000, with the pmf evaluated by the two-sided recurrence from the
mode, and the normal approximation with continuity correction
k = floor(n p + z sigma + 1/2) above that.  Thresholds and methods are fixed
so frozen golden counts stay valid.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import qcore

PRNG_ID = "splitmix64"
ESTIMATOR_ID = "mle-closed-v1"
BASES = ("X", "Y", "Z")
BASIS_KETS = {
    "X": (qcore.KET_X_PLUS, qcore.KET_X_MINUS),
    "Y": (qcore.KET_Y_PLUS, qcore.KET_Y_MINUS),
    "Z": (qcore.KET_H, qcore.KET_V),
}

_MASK = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_INVERSION_MAX_SHOTS = 10_000
# step cap for the MLE multiplier bisection, which needs at most 51 steps
MLE_MAX_STEPS = 100


def mix64(x: int) -> int:
    """splitmix64 finalizer: the stateless 64-bit mixing function."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based stream: output k is mix64(seed + (k+1)*GOLDEN_GAMMA)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def derive_stream(seed: int, *indices: int) -> int:
    """Stable sub-stream seed: seed XOR a mix of the task indices.

    Used to give every (grid point, tomography target, Pauli basis) its own
    independent stream without coupling draw counts across tasks.
    """
    h = seed & _MASK
    for slot, idx in enumerate(indices):
        h ^= mix64(((slot + 1) * _GOLDEN_GAMMA + idx) & _MASK)
    return h


def _normal_quantile(u: float) -> float:
    # bisection on Phi(z) = u; ~1e-16 interval after 100 halvings of [-40, 40]
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _binomial_inverse_cdf(u: float, n: int, p: float) -> int:
    mode = min(n, int((n + 1) * p))
    log_pmf_mode = (
        math.lgamma(n + 1)
        - math.lgamma(mode + 1)
        - math.lgamma(n - mode + 1)
        + mode * math.log(p)
        + (n - mode) * math.log1p(-p)
    )
    pmf = np.zeros(n + 1)
    pmf[mode] = math.exp(log_pmf_mode)
    if mode < n:
        k = np.arange(mode, n, dtype=float)
        pmf[mode + 1 :] = pmf[mode] * np.cumprod((n - k) / (k + 1.0) * (p / (1.0 - p)))
    if mode > 0:
        k = np.arange(mode, 0, -1, dtype=float)
        pmf[mode - 1 :: -1] = pmf[mode] * np.cumprod(k / (n - k + 1.0) * ((1.0 - p) / p))
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, u, side="left"))


def binomial_draw(n: int, p: float, stream: SplitMix64) -> int:
    """One Binomial(n, p) draw; consumes exactly one uniform from the stream."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    u = max(stream.next_float(), 2.0 ** -53)
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or n == 0:
        return 0
    if p == 1.0:
        return n
    if n <= _INVERSION_MAX_SHOTS:
        return _binomial_inverse_cdf(u, n, p)
    z = _normal_quantile(u)
    k = math.floor(n * p + z * math.sqrt(n * p * (1.0 - p)) + 0.5)
    return min(max(int(k), 0), n)


@dataclass(frozen=True)
class TomographyRecord:
    """Per-basis (count_plus, count_minus) pairs from one tomography run."""

    shots_per_basis: int
    seed: int
    counts: dict[str, tuple[int, int]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "shots": self.shots_per_basis,
                "counts": {b: list(self.counts[b]) for b in BASES},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TomographyRecord":
        obj = json.loads(text)
        counts = {b: (int(obj["counts"][b][0]), int(obj["counts"][b][1])) for b in BASES}
        return cls(shots_per_basis=int(obj["shots"]), seed=int(obj["seed"]), counts=counts)

    def stokes(self) -> np.ndarray:
        """Estimated Pauli expectation values (n_plus - n_minus) / shots."""
        return np.array(
            [(self.counts[b][0] - self.counts[b][1]) / self.shots_per_basis for b in BASES]
        )


def _check_record(record: TomographyRecord) -> None:
    if record.shots_per_basis < 1:
        raise ValueError(f"shots_per_basis must be >= 1, got {record.shots_per_basis}")
    for b in BASES:
        if b not in record.counts:
            raise ValueError(f"record is missing basis {b}")
        plus, minus = record.counts[b]
        if plus < 0 or minus < 0 or plus + minus != record.shots_per_basis:
            raise ValueError(f"counts for basis {b} do not sum to shots: {record.counts[b]}")


def simulate_counts(rho, shots_per_basis: int, seed: int) -> TomographyRecord:
    """Draw shot-noisy Pauli-basis counts for a qubit state.

    count_plus for basis i is Binomial(shots, tr(P_plus rho)) from the stream
    derive_stream(seed, i); deterministic for fixed (rho, shots, seed).
    """
    rho = qcore.ensure_density(rho, dim=2)
    if shots_per_basis < 1:
        raise ValueError(f"shots_per_basis must be >= 1, got {shots_per_basis}")
    counts = {}
    for i, b in enumerate(BASES):
        ket_plus, _ = BASIS_KETS[b]
        p_plus = float(np.vdot(ket_plus, rho @ ket_plus).real)  # binomial_draw clips it to [0, 1]
        stream = SplitMix64(derive_stream(seed, i))
        n_plus = binomial_draw(shots_per_basis, p_plus, stream)
        counts[b] = (n_plus, shots_per_basis - n_plus)
    return TomographyRecord(shots_per_basis=shots_per_basis, seed=seed, counts=counts)


@dataclass(frozen=True)
class ReconstructionResult:
    state: np.ndarray
    method: str
    iterations: int
    converged: bool
    blended: bool = False


def reconstruct_linear(record: TomographyRecord) -> ReconstructionResult:
    """Linear-inversion estimate with physical projection.

    Builds (I + r . sigma)/2 from the Stokes estimates s with r = s / max(1, |s|):
    the map that clips a negative eigenvalue of the candidate to zero and
    renormalizes the trace, which sends |s| > 1 onto the pure state along s.
    """
    _check_record(record)
    s = record.stokes()
    state = qcore.bloch_state(s / max(1.0, float(np.linalg.norm(s))))
    return ReconstructionResult(state=state, method="linear", iterations=0, converged=True)


def _axis_root(s: float, mu: float) -> float:
    """Bloch component r(mu) on one axis of the boundary MLE.

    For |s| < 1, r is the root in (-1, 1) of (1+s)/(1+r) - (1-s)/(1-r) = 2 mu r,
    which is the middle real root of the cubic mu r^3 - (1 + mu) r + s = 0.
    For |s| = 1 the cubic factors as (r - s)(mu r^2 + s mu r - 1): r stays
    pinned at s up to mu = 1/2, where the cubic has its only double root,
    and follows the quadratic factor's root after that.
    """
    if abs(s) == 1.0:
        if mu <= 0.5:
            return s
        return s * (math.sqrt(1.0 + 4.0 / mu) - 1.0) / 2.0
    # trigonometric middle root, written as 2/a sin(arcsin(c)/3) so it has no cancellation as mu -> 0
    a = math.sqrt(3.0 * mu / (1.0 + mu))
    return 2.0 / a * math.sin(math.asin(max(-1.0, min(1.0, 1.5 * s * a / (1.0 + mu)))) / 3.0)


def reconstruct_mle(record: TomographyRecord) -> ReconstructionResult:
    """Closed-form maximum-likelihood estimate from Pauli-basis counts.

    Let s be the linear-inversion Stokes vector, s_k = (n+ - n-) / N.  If
    |s| <= 1 the MLE is r = s.  Otherwise it is the point on the unit sphere
    where n+/(1 + r_k) - n-/(1 - r_k) = 2 lambda r_k on each axis: for fixed
    mu = 2 lambda / N, r_k is the middle real root of
    mu r^3 - (1 + mu) r + s_k = 0 (trigonometric form), and |r(mu)| falls
    monotonically in mu on [0, 3/2], which brackets the multiplier.
    Bisection on mu reaches |r| = 1 to rounding in at most 51 steps.

    `iterations` counts those root steps, 0 in the interior.  RuntimeError
    is raised if the root-find has not converged in MLE_MAX_STEPS; the
    result is never an unconverged or blended iterate.  The tests check it
    against Hradil's iterative R-rho-R estimator (PRA 55, R1561, 1997).
    """
    _check_record(record)
    s = record.stokes()
    steps = 0
    if float(s @ s) > 1.0:
        tol = 4.0 * np.finfo(float).eps
        lo, hi, s = 0.0, 1.5, s.tolist()
        while True:
            if steps == MLE_MAX_STEPS:
                raise RuntimeError(f"MLE multiplier search did not converge in {MLE_MAX_STEPS} steps: {record.counts}")
            steps += 1
            mu = 0.5 * (lo + hi)
            r = [_axis_root(sk, mu) for sk in s]
            h = sum(rk * rk for rk in r) - 1.0
            lo, hi = (mu, hi) if h > 0.0 else (lo, mu)
            if abs(h) <= tol or hi - lo <= tol:
                break
        s = np.array(r) / math.sqrt(h + 1.0)
    return ReconstructionResult(state=qcore.bloch_state(s), method="mle", iterations=steps, converged=True)
