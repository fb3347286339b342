"""Simulated Pauli-basis photon counting for a single qubit, plus state
reconstruction by linear inversion and by closed-form maximum likelihood.

Every stage works on a stack of records: `tomograph` takes all of a curve's
Bloch vectors in one call, and simulate_counts, binomial_draw and
reconstruct_mle wrap the same kernels for one record.  Their transcendental
calls go through libm (qcore.libm), so a stack rounds as one record does.

Maximum likelihood
------------------
The Pauli likelihood separates by axis, so the qubit MLE is closed-form (see
reconstruct_mle); the records on the Bloch-sphere boundary bisect their
multipliers in lockstep.  Newton steps seed each multiplier, and a record
starts its bisection at the deepest bracket that two libm evaluations certify
the bisection from [0, 3/2] reaches (see _mle_start), so every iterate and
the step count are those of the bisection from scratch.  ESTIMATOR_ID names
it in harness output metadata.

Reproducibility contract
------------------------
All randomness comes from splitmix64, a counter-based 64-bit generator:
stream element k is mix64(seed + (k+1) * 0x9E3779B97F4A7C15) where mix64 is
the splitmix64 finalizer.  Uniform doubles are (u64 >> 11) * 2**-53.  Each
Pauli basis uses its own stream derived as seed XOR mix64 of the basis index,
and exactly one uniform is consumed per binomial draw, so identical
(state, shots, seed) always give bit-identical counts.  Seeds are integers in
[0, 2**64) and shots at most SHOTS_MAX.  The algorithm identifier PRNG_ID is
recorded in harness output metadata.

Axis k gives "+" with probability (1 + r_k) / 2 for the Bloch vector r.
Binomial sampling uses exact CDF inversion (k = min{k : F(k) >= u}) for
shots <= 10_000, with the pmf evaluated by the two-sided recurrence from the
mode (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X) and summed
from 0, and the normal approximation with continuity correction
k = floor(n p + z sigma + 1/2) above that, z from 100 halvings on Phi(z) = u.
A draw takes that k from a closed-form z and a two-point check that the
halvings end where the floor cannot change (see _normal_draws); a draw that
fails the check runs the halvings.  Thresholds and methods are fixed so
frozen golden counts stay valid, and the counts are the same bits either way.
The inversion evaluates a window around the mode from Bernstein's tail bound:
left of it every pmf term underflows to 0.0 (tail e^-800), right of it each
term is under half an ulp of the running sum (tail e^-40), so the window's
CDF is the full-support one bit for bit.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import qcore

PRNG_ID = "splitmix64"
ESTIMATOR_ID = "mle-closed-v1"
BASES = ("X", "Y", "Z")
SHOTS_MAX = 2**53  # counts and n p stay exact in float64
SEED_LIMIT = 2**64  # seeds are integers in [0, SEED_LIMIT)

_MASK = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_INVERSION_MAX_SHOTS = 10_000
_TAIL_BELOW, _TAIL_ABOVE = 800.0, 40.0  # Bernstein exponents of the inversion window (see the module docstring)
_WINDOW_FLOATS = 2**14  # window elements per numpy pass, so the sampler's temporaries stay small
# step cap for the MLE multiplier bisection, which needs at most 51 steps
MLE_MAX_STEPS = 100
_ACKLAM = (  # numerators and denominators of _inverse_normal's central and tail regions
    [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
     1.383577518672690e02, -3.066479806614716e01, 2.506628277459239],
    [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
     6.680131188771972e01, -1.328068155288572e01, 1.0],
    [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838,
     -2.549732539343734, 4.374664141464968, 2.938163982698783],
    [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996, 3.754408661907416, 1.0],
)
_QUANTILE_MARGIN = 2.0**-46  # times (1 + z^2) u: at least twice _phi's rounding error near Phi(z) = u
_MLE_MARGIN = 2.0**-44  # times 1 + sum 1/sqrt(1 - s_k^2): ~4x the rounding error of two _excess values
_MLE_DEPTH = 44  # deepest jump of the multiplier bisection; its brackets are exact floats
_NEWTON_STEPS = 4  # Newton steps that seed the jump


def mix64(x):
    """splitmix64 finalizer: the stateless 64-bit mixing function, on an int or a uint64 array."""
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


def derive_stream(seed, *indices):
    """Stable sub-stream seed: seed XOR a mix of the task indices; ints, or uint64 arrays that broadcast.

    Used to give every (grid point, tomography target, Pauli basis) its own
    independent stream without coupling draw counts across tasks.
    """
    h = seed & _MASK
    for slot, idx in enumerate(indices):
        h = h ^ mix64((((slot + 1) * _GOLDEN_GAMMA) & _MASK) + idx & _MASK)
    return h


def binomial_draw(n: int, p: float, stream: SplitMix64) -> int:
    """One Binomial(n, p) draw; consumes exactly one uniform from the stream."""
    if not 0 <= n <= SHOTS_MAX:
        raise ValueError(f"n must be in [0, {SHOTS_MAX}], got {n}")
    return int(_binomial_draws(n, np.array([p], dtype=float), np.array([stream.next_float()]))[0])


def _binomial_draws(n: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Binomial(n, p[i]) by inversion of the uniform u[i], for 1-d p and u (see the module docstring)."""
    u, p = np.maximum(u, 2.0**-53), np.clip(p, 0.0, 1.0)
    k = np.where(p == 1.0, n, 0)
    live = np.flatnonzero((p > 0.0) & (p < 1.0) & (n > 0))
    if n > _INVERSION_MAX_SHOTS:
        k[live] = _normal_draws(n, p[live], u[live])
        return k
    ps, which = np.unique(p[live], return_inverse=True)  # draws with one p share its CDF
    rows = max(1, _WINDOW_FLOATS // (sum(_window(n, np.array([0.5]))[1:]) + 1))  # about the widest window, p = 1/2's
    for i in range(0, ps.size, rows):
        k0, cdf = _window_cdf(n, ps[i : i + rows])
        mine = np.flatnonzero((which >= i) & (which < i + rows))
        k[live[mine]] = [k0[j] + np.searchsorted(cdf[j], v) for j, v in zip(which[mine] - i, u[live[mine]].tolist())]
    return k


def _window(n: int, p: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(modes of Binomial(n, p[i]), most window terms any row keeps left and right of its mode, at least 1)."""
    # Bernstein: P(X - n p >= t) and P(n p - X >= t) are at most e^-T for t = T/3 + sqrt(T^2/9 + 2 T var)
    mean, var = n * p, n * p * (1.0 - p)
    below, above = (tail / 3.0 + np.sqrt(tail * tail / 9.0 + 2.0 * tail * var) for tail in (_TAIL_BELOW, _TAIL_ABOVE))
    mode = np.minimum(n, ((n + 1) * p).astype(np.int64))
    first, last = np.maximum(0, np.floor(mean - below)), np.minimum(n, np.ceil(mean + above))
    return mode, int(np.max(mode - first, initial=1)), int(np.max(last - mode, initial=1))


def _window_cdf(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k0, cdf): cdf[i, j] is the full-support F(k0[i] + j) of Binomial(n, p[i]), 0 < p < 1, bit for bit.

    The block spans the rows' widest window; a row's terms outside its own are the full support's too.
    """
    mode, wl, wr = _window(n, p)
    lg = math.lgamma
    top = [  # pmf(mode), in scalar floats
        math.exp(lg(n + 1) - lg(m + 1) - lg(n - m + 1) + m * math.log(x) + (n - m) * math.log1p(-x))
        for m, x in zip(mode.tolist(), p.tolist())
    ]
    # pmf(k -+ 1) / pmf(k) is down[hi - k] (1 - p) / p or up[k - lo] p / (1 - p) over the k the rows reach,
    # 0 off the support; pmf runs as their products away from the mode
    lo, hi = int(mode.min()), int(mode.max())
    k = np.arange(max(lo - wl + 1, 0), hi + 1.0)
    down = np.concatenate([(k / (n - k + 1.0))[::-1], np.zeros(wl)])
    k = np.arange(lo, min(hi + wr - 1, n) + 1.0)
    up = np.concatenate([(n - k) / (k + 1.0), np.zeros(wr)])
    odds = np.divide(1.0 - p, p, out=np.zeros_like(p), where=mode > 0)  # no terms left of a mode at 0
    below, above = sliding_window_view(down, wl)[hi - mode], sliding_window_view(up, wr)[mode - lo]
    below *= odds[:, None]
    above *= (p / (1.0 - p))[:, None]
    cdf = np.empty((p.size, wl + 1 + wr))
    np.cumprod(below, axis=1, out=cdf[:, wl - 1 :: -1])
    np.cumprod(above, axis=1, out=cdf[:, wl + 1 :])
    cdf[:, wl] = 1.0
    cdf *= np.array(top)[:, None]
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:].copy()
    return mode - wl, cdf


def _normal_draws(n: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """floor(n p + z sigma + 1/2) in [0, n], z from 100 halvings of [-40, 40] on Phi(z) = u.

    The draw needs z only as far as that floor does.  Each draw starts from the
    closed-form z0 of _inverse_normal and checks two points a < z0 < b:
    _phi(a) < u - m and _phi(b) >= u + m, where m is twice the rounding bound
    of _phi (a few ulps from libm erfc, plus the rounding of its argument).
    Every halving midpoint at or below a then moves lo and every one at or
    above b moves hi, so the halvings end inside [a, b] (within 2**-80 when
    they run out before lo and hi meet), and the floor at both ends agreeing
    gives the draw.  A draw that fails either check takes the halvings.
    """

    def floors(z, i=slice(None)):
        return np.clip(np.floor(n * p[i] + z * np.sqrt(n * p[i] * (1.0 - p[i])) + 0.5), 0, n).astype(np.int64)

    z = _inverse_normal(u)
    margin = _QUANTILE_MARGIN * (1.0 + z * z) * u
    half = 4e-9 * np.abs(z) + 4.0 * margin * math.sqrt(2.0 * math.pi) * np.exp(z * z / 2.0)
    a, b = z - half, z + half
    k = floors(a - 2.0**-80)
    fall = np.flatnonzero((_phi(a) >= u - margin) | (_phi(b) < u + margin) | (floors(b + 2.0**-80) != k))
    if fall.size:
        k[fall] = floors(_bisect_quantiles(u[fall]), fall)
    return k


def _inverse_normal(u: np.ndarray) -> np.ndarray:
    """Phi^-1(u) for 0 < u < 1 to a relative error below 1.15e-9 (P. J. Acklam's rational approximation)."""
    a, b, c, d = _ACKLAM
    q = u - 0.5
    t = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    central = q * np.polyval(a, q * q) / np.polyval(b, q * q)
    return np.where(np.abs(q) <= 0.47575, central, np.copysign(np.polyval(c, t) / np.polyval(d, t), q))


def _phi(z: np.ndarray) -> np.ndarray:
    """The normal CDF as the halvings round it, through libm erfc."""
    return 0.5 * qcore.libm(math.erfc, -z / math.sqrt(2.0))


def _bisect_quantiles(u: np.ndarray) -> np.ndarray:
    """z from 100 halvings of [-40, 40] on _phi(z) = u; a midpoint that rounds to an end stops its row."""
    z, rows = np.empty_like(u), np.arange(u.size)
    lo, hi = np.full_like(u, -40.0), np.full_like(u, 40.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        # a midpoint that rounds to an end leaves the bracket where it is for every later halving
        moving = (mid != lo) & (mid != hi)
        if not moving.all():
            z[rows[~moving]] = mid[~moving]
            rows, lo, hi, u, mid = rows[moving], lo[moving], hi[moving], u[moving], mid[moving]
            if not rows.size:
                break
        below = _phi(mid) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    z[rows] = 0.5 * (lo + hi)
    return z


def _basis_uniforms(streams: np.ndarray) -> np.ndarray:
    """u[i, b] = SplitMix64(derive_stream(streams[i], b)).next_float() for the uint64 seeds streams[i]."""
    return (mix64(derive_stream(streams[:, None], np.arange(3, dtype=np.uint64)) + _GOLDEN_GAMMA) >> 11) * 2.0**-53


def _pauli_counts(blochs: np.ndarray, shots: int, streams: np.ndarray) -> np.ndarray:
    """Counts of "+" on X, Y, Z of the qubits (I + blochs[i] . sigma)/2, basis b drawing on _basis_uniforms(streams)."""
    return _binomial_draws(shots, ((1.0 + blochs) / 2.0).ravel(), _basis_uniforms(streams).ravel()).reshape(-1, 3)


def tomograph(blochs: np.ndarray, shots: int, streams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(MLE Bloch vectors, root steps) from simulated counts of each qubit; see _pauli_counts and reconstruct_mle."""
    return _mle(_pauli_counts(blochs, shots, streams), shots)


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

    count_plus for basis i is Binomial(shots, (1 + r_i) / 2), r the Bloch vector, from the stream
    derive_stream(seed, i); deterministic for fixed (rho, shots, seed).
    """
    rho = qcore.ensure_density(rho, dim=2)
    if not 1 <= shots_per_basis <= SHOTS_MAX:
        raise ValueError(f"shots_per_basis must be in [1, {SHOTS_MAX}], got {shots_per_basis}")
    stream = np.array([seed & _MASK], dtype=np.uint64)
    plus = _pauli_counts(qcore.bloch_vector(rho)[None], shots_per_basis, stream)[0].tolist()
    counts = {b: (k, shots_per_basis - k) for b, k in zip(BASES, plus)}
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


def _axis_roots(s: np.ndarray, mu: np.ndarray, unit: bool, libm: bool = True) -> np.ndarray:
    """Bloch components r(mu) of the boundary MLE, elementwise; unit says whether any |s| is 1.

    For |s| < 1, r is the root in (-1, 1) of (1+s)/(1+r) - (1-s)/(1-r) = 2 mu r,
    which is the middle real root of the cubic mu r^3 - (1 + mu) r + s = 0.
    For |s| = 1 the cubic factors as (r - s)(mu r^2 + s mu r - 1): r stays
    pinned at s up to mu = 1/2, where the cubic has its only double root,
    and follows the quadratic factor's root after that.  libm=False takes
    numpy's asin and sin, which may differ in the last bit.
    """
    # trigonometric middle root, written as 2/a sin(arcsin(c)/3) so it has no cancellation as mu -> 0
    mu1 = 1.0 + mu
    a = np.sqrt(3.0 * mu / mu1)
    c = np.maximum(-1.0, np.minimum(1.0, 1.5 * s * a / mu1))
    if libm:
        r = 2.0 / a * qcore.libm(math.sin, qcore.libm(math.asin, c) / 3.0)
    else:
        r = 2.0 / a * np.sin(np.arcsin(c) / 3.0)
    if unit:
        r = np.where(np.abs(s) == 1.0, np.where(mu <= 0.5, s, s * (np.sqrt(1.0 + 4.0 / mu) - 1.0) / 2.0), r)
    return r


def _excess(r: np.ndarray) -> np.ndarray:
    """|r|^2 - 1 of each row, rounded as the bisection rounds it."""
    q = r * r
    return q[:, :1] + q[:, 1:2] + q[:, 2:] - 1.0


def _mle_start(t: np.ndarray, unit: bool, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(depth, lo, hi) per row: a bracket the bisection of [0, 3/2] on _excess(_axis_roots(t, mu)) reaches at depth.

    Newton steps on |r(mu)|^2 = 1 from mu = |t| - 1, with r' = (r - r^3) / (3 mu r^2 - 1 - mu) from
    the cubic, seed mu0.  The deepest dyadic cell [lo, hi] of [0, 3/2] that holds mu0 +- delta (delta
    scaled by the slope at mu0) is checked in libm: h(lo) > m and h(hi) < -m for h = _excess, where m
    is tol plus a bound on h's rounding error, which grows as |t_k| -> 1 (asin near its double root).
    |r(mu)| falls monotonically, so every midpoint the bisection meets on its way to [lo, hi] sends it
    the same way and none stops it.  A row that fails the check starts at depth 0.
    """
    m = tol + _MLE_MARGIN * (1.0 + np.sum(1.0 / np.sqrt(np.where(np.abs(t) < 1.0, 1.0 - t * t, np.inf)), axis=1))
    with np.errstate(all="ignore"):  # a seed that runs off the bracket only fails the check
        mu = np.sqrt(np.vecdot(t, t))[:, None] - 1.0
        for _ in range(_NEWTON_STEPS):
            q = _axis_roots(t, mu, unit, libm=False) ** 2
            h, slope = q.sum(axis=1) - 1.0, 2.0 * np.sum(q * (1.0 - q) / (3.0 * mu * q - 1.0 - mu), axis=1)
            mu = np.clip(mu - (h / slope)[:, None], np.finfo(float).tiny, 1.5)
        delta = 2.0 * (m + np.abs(h)) / np.abs(slope)
        ends = np.stack([mu[:, 0] - delta, mu[:, 0] + delta]) * (2.0**_MLE_DEPTH / 1.5)  # in deepest cells
        inside = (ends[0] >= 1.0) & (ends[1] < 2.0**_MLE_DEPTH)
    first, last = np.where(inside, np.floor(ends), [[0.0], [2.0**_MLE_DEPTH - 1]]).astype(np.int64)
    depth = _MLE_DEPTH - np.frexp((first ^ last).astype(float))[1]  # the leading bits the two cells share
    width = np.ldexp(1.5, -depth)
    lo = (first >> (_MLE_DEPTH - depth)) * width
    hi = lo + width
    h = _excess(_axis_roots(np.concatenate([t, t]), np.concatenate([np.where(lo > 0.0, lo, hi), hi])[:, None], unit))
    ok = (lo > 0.0) & (h[: len(t), 0] > m) & (h[len(t) :, 0] < -m)
    return np.where(ok, depth, 0), np.where(ok, lo, 0.0)[:, None], np.where(ok, hi, 1.5)[:, None]


def _mle(plus: np.ndarray, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """(Bloch vectors, root steps) of the closed-form MLE for "+" counts plus[i] on X, Y, Z (see reconstruct_mle)."""
    s = (2 * plus - shots) / shots
    steps = np.zeros(len(s), dtype=np.int64)
    rows = np.flatnonzero(np.vecdot(s, s) > 1.0)
    if not rows.size:
        return s, steps
    t = s[rows]
    unit, tol = bool((np.abs(t) == 1.0).any()), 4.0 * np.finfo(float).eps
    depth, lo, hi = _mle_start(t, unit, tol)
    while rows.size:
        if (depth >= MLE_MAX_STEPS).any():
            stuck = plus[rows[np.argmax(depth)]]
            raise RuntimeError(f"MLE multiplier search did not converge in {MLE_MAX_STEPS} steps: {stuck} of {shots}")
        depth += 1
        mu = 0.5 * (lo + hi)
        r = _axis_roots(t, mu, unit)
        h = _excess(r)
        out = h > 0.0
        lo, hi = np.where(out, mu, lo), np.where(out, hi, mu)
        done = ((np.abs(h) <= tol) | (hi - lo <= tol))[:, 0]
        if done.any():
            s[rows[done]] = r[done] / np.sqrt(h[done] + 1.0)
            steps[rows[done]] = depth[done]
            rows, t, lo, hi, depth = rows[~done], t[~done], lo[~done], hi[~done], depth[~done]
    return s, steps


def reconstruct_mle(record: TomographyRecord) -> ReconstructionResult:
    """Closed-form maximum-likelihood estimate from Pauli-basis counts.

    Let s be the linear-inversion Stokes vector, s_k = (n+ - n-) / N.  If
    |s| <= 1 the MLE is r = s.  Otherwise it is the point on the unit sphere
    where n+/(1 + r_k) - n-/(1 - r_k) = 2 lambda r_k on each axis: for fixed
    mu = 2 lambda / N, r_k is the middle real root of
    mu r^3 - (1 + mu) r + s_k = 0 (trigonometric form), and |r(mu)| falls
    monotonically in mu on [0, 3/2], which brackets the multiplier.
    Bisection on mu reaches |r| = 1 to rounding in at most 51 steps.  The
    bisection starts at the bracket it would reach after its first K steps,
    K from a Newton seed and certified by two libm evaluations with a margin
    over their rounding (see _mle_start); a record that fails the check
    bisects from [0, 3/2].  Either way every iterate is the same.

    `iterations` counts the root steps, the K skipped ones included, so it is
    the step count of the bisection from scratch; 0 in the interior.  RuntimeError
    is raised if the root-find has not converged in MLE_MAX_STEPS; the
    result is never an unconverged or blended iterate.  The tests check it
    against Hradil's iterative R-rho-R estimator (PRA 55, R1561, 1997).
    """
    _check_record(record)
    bloch, steps = _mle(np.array([[record.counts[b][0] for b in BASES]]), record.shots_per_basis)
    return ReconstructionResult(state=qcore.bloch_state(bloch[0]), method="mle", iterations=int(steps[0]), converged=True)
