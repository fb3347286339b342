"""Simulated Pauli-basis photon counting for a single qubit, plus state
reconstruction by linear inversion and by closed-form maximum likelihood.

Every stage works on a stack of records: `tomograph` takes all of a curve's Bloch vectors in one call and returns
their "+" counts, MLE estimates and root steps, and simulate_counts, binomial_draw, reconstruct_linear and
reconstruct_mle wrap the same kernels for one record.

Maximum likelihood
------------------
The Pauli likelihood separates by axis, so the qubit MLE is closed-form (see
reconstruct_mle) up to one multiplier per record on the Bloch-sphere
boundary.  Those records solve for it in lockstep, in numpy's arcsin and sin: three unguarded Newton
steps, then a Newton iteration kept inside a bisection bracket for the rows they leave unsolved.  ESTIMATOR_ID
names it in harness output metadata.  The estimates are bit-stable from run
to run on one numpy build, but not across builds, and numpy's SIMD trig may
round a stack and numpy scalars differently.

Reproducibility contract
------------------------
All randomness comes from splitmix64, a counter-based 64-bit generator: stream element k is
mix64(seed + (k+1) * 0x9E3779B97F4A7C15) where mix64 is the splitmix64 finalizer.  Uniform doubles are
(u64 >> 11) * 2**-53.  Each Pauli basis uses its own stream derived as seed XOR mix64 of the basis index (the three
mixes are made once, at import, as _BASIS_MIXES: the streams are unchanged), and each binomial draw inverts one
uniform, its stream's element 0, so identical (state, shots, seed) give bit-identical counts on one numpy build, and
up to 10_000 shots the same Bloch vectors give the same counts on every build (see below).  Shots and seeds pass one
check, shots_and_seed, and a TomographyRecord checks its counts when it is made and refuses any change to them after
(a TypeError), so every record reconstructs and writes JSON.  PRNG_ID names the algorithm in harness output metadata.

Axis k gives "+" with probability (1 + r_k) / 2 for the Bloch vector r.
Binomial sampling uses exact CDF inversion (k = min{k : F(k) >= u}) for shots <= 10_000, with the terms
pmf(k) / pmf(mode) taken by the two-sided ratio recurrence from the mode at 1.0 (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. X), summed from the left and divided by their total, and the normal approximation
k = floor(n p + z sigma + 1/2) above that, z = Phi^-1(u) from statistics.NormalDist (see _normal_draws).
Inversion uses only +, -, *, /, floor and sqrt, which IEEE 754 rounds correctly, so its counts are the same on
every build.  The normal branch's AS241 calls the C library's log where |u - 1/2| > 0.425, and the MLE numpy's
SIMD arcsin and sin, so those are bit-stable on one build only.  Thresholds and methods are fixed so frozen
golden counts stay valid.
The inversion evaluates a window around the mode from Bernstein's tail bound, e^-40 on each side: left of it the
full-support F(k) is below 2**-53, the least uniform drawn, inside it the sums lack at most e^-40 (a few ulps of
F), and right of it F is 1.0.  The draws of one p share one CDF row and one search over their uniforms.
"""

import json
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import qcore

PRNG_ID = "splitmix64-sampler-v5"
ESTIMATOR_ID = "mle-newton-v3"
BASES = ("X", "Y", "Z")
SHOTS_MAX = 2**53  # counts and n p stay exact in float64
SEED_LIMIT = 2**64  # seeds are integers in [0, SEED_LIMIT)

_MASK = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_INVERSION_MAX_SHOTS = 10_000
_TAIL = 40.0  # Bernstein exponent of the inversion window on each side of the mode (see the module docstring)
_WINDOW_FLOATS = 2**14  # window elements per numpy pass, so the sampler's temporaries stay small
# step cap for the MLE multiplier search; bisection alone needs at most 51 steps
MLE_MAX_STEPS = 100
_FAST_STEPS = 3  # unguarded Newton steps every boundary MLE row takes from its second-order start, before any bracket
_STANDARD_NORMAL = NormalDist()
_NEWTON_GAIN = 0.5  # a Newton step on the MLE multiplier must shrink |h| this much while |h| > 1e-8, or the row bisects


def mix64(x):
    """splitmix64 finalizer: the stateless 64-bit mixing function, on an int or a uint64 array (which wraps at 2**64 unmasked)."""
    if isinstance(x, np.ndarray):
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB
        return x ^ (x >> 31)
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_stream(seed, *indices):
    """Stable sub-stream seed: seed XOR a mix of the task indices; integers (numpy ones too), or uint64 arrays that broadcast.

    Used to give every (grid point, tomography target, Pauli basis) its own
    independent stream without coupling draw counts across tasks.
    """
    h, *indices = (int(x) & _MASK if isinstance(x, numbers.Integral) else x for x in (seed, *indices))  # no numpy scalar math
    for slot, idx in enumerate(indices):
        h = h ^ mix64((((slot + 1) * _GOLDEN_GAMMA) & _MASK) + idx)  # mix64 masks an int sum; a uint64 one wraps
    return h


def binomial_draw(n: int, p: float, u: float) -> int:
    """One Binomial(n, p) draw, 0 <= p <= 1, by inversion of the uniform 0 <= u < 1, as _binomial_draws draws it."""
    n = qcore.as_int("n", n)
    if not 0 <= n <= SHOTS_MAX:
        raise ValueError(f"n must be in [0, {SHOTS_MAX}], got {n}")
    p = qcore.as_unit_real("p", p)
    if not qcore.is_real_type(type(u)) or not 0.0 <= u < 1.0:  # nan is out of range
        raise ValueError(f"u must be a real number in [0, 1), got {u!r}")
    return int(_binomial_draws(n, np.array([p], dtype=float), np.array([u], dtype=float))[0])


def _binomial_draws(n: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Binomial(n, p[i]) by inversion of the uniform u[i], for 1-d p and u (see the module docstring)."""
    u, p = np.maximum(u, 2.0**-53), np.clip(p, 0.0, 1.0)  # states pass validation to 1e-10, so p may sit just outside [0, 1]
    k = np.where(p == 1.0, n, 0)
    live = np.flatnonzero((p > 0.0) & (p < 1.0) & (n > 0))
    if n > _INVERSION_MAX_SHOTS or not live.size:  # the normal branch (with no live draw, it assigns nothing)
        k[live] = _normal_draws(n, p[live], u[live])
        return k
    live = live[np.argsort(p[live], kind="stable")]  # sorted by p: the draws of one p are one run and share its CDF
    ps, first = np.unique(p[live], return_index=True)
    runs = np.split(u[live], first[1:])  # the uniforms of each run
    rows = max(1, _WINDOW_FLOATS // (sum(_window(n, np.array([0.5]))[1:]) + 1))  # about the widest window, p = 1/2's
    k0, found = np.empty(ps.size, dtype=np.int64), []
    for i in range(0, ps.size, rows):
        k0[i : i + rows], cdf = _window_cdf(n, ps[i : i + rows])
        found += map(np.ndarray.searchsorted, cdf, runs[i : i + rows])
    k[live] = np.repeat(k0, np.diff(first, append=live.size)) + np.concatenate(found)
    return k


def _window(n: int, p: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(modes of Binomial(n, p[i]), most window terms any row keeps left and right of its mode, at least 1)."""
    # Bernstein: P(X - n p >= t) and P(n p - X >= t) are at most e^-T for t = T/3 + sqrt(T^2/9 + 2 T var)
    mean, var = n * p, n * p * (1.0 - p)
    t = _TAIL / 3.0 + np.sqrt(_TAIL * _TAIL / 9.0 + 2.0 * _TAIL * var)
    mode = np.minimum(n, ((n + 1) * p).astype(np.int64))
    first, last = np.maximum(0, np.floor(mean - t)), np.minimum(n, np.ceil(mean + t))
    return mode, int(np.max(mode - first, initial=1)), int(np.max(last - mode, initial=1))


def _window_cdf(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k0, cdf): cdf[i, j] is F(k0[i] + j) of Binomial(n, p[i]), 0 < p < 1, summed from k0[i]; within 2**-56 of the full support's.

    Each row spans the block's widest window from its own mode; its terms past its own window are the full support's.
    """
    mode, wl, wr = _window(n, p)
    # the ratios pmf(k -+ 1) / pmf(k) outward from each row's own mode, 0 off the support; their products are pmf / pmf(mode)
    odds = np.divide(1.0 - p, p, out=np.zeros_like(p), where=mode > 0)  # no terms left of a mode at 0
    k = mode[:, None] - np.arange(wl, dtype=float)  # in float: every k is an integer below 2**53
    below = np.maximum(k, 0.0) / (n - k + 1.0) * odds[:, None]
    k = mode[:, None] + np.arange(wr, dtype=float)
    above = np.maximum(n - k, 0.0) / (k + 1.0) * (p / (1.0 - p))[:, None]
    cdf = np.empty((p.size, wl + 1 + wr))
    np.cumprod(below, axis=1, out=cdf[:, wl - 1 :: -1])
    np.cumprod(above, axis=1, out=cdf[:, wl + 1 :])
    cdf[:, wl] = 1.0
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:].copy()
    return mode - wl, cdf


def _normal_draws(n: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """floor(n p + z sigma + 1/2) in [0, n], z = Phi^-1(u) by NormalDist's AS241 (Wichura, Appl. Stat. 37, 477, 1988).

    AS241 works from u - 1/2 and min(u, 1 - u), both exact for the stream's uniforms, so z(1 - u) = -z(u) exactly.
    """
    z = np.array(list(map(_STANDARD_NORMAL.inv_cdf, u.tolist())))
    return np.clip(np.floor(n * p + z * np.sqrt(n * p * (1.0 - p)) + 0.5), 0, n).astype(np.int64)


_BASIS_MIXES = mix64(_GOLDEN_GAMMA + np.arange(3, dtype=np.uint64))  # derive_stream's mixes of the basis index b = 0, 1, 2


def _basis_uniforms(streams: np.ndarray) -> np.ndarray:
    """u[i, b], the first uniform of the stream derive_stream(streams[i], b) = streams[i] ^ _BASIS_MIXES[b], for uint64 streams."""
    return (mix64((streams[:, None] ^ _BASIS_MIXES) + _GOLDEN_GAMMA) >> 11) * 2.0**-53


def _pauli_counts(blochs: np.ndarray, shots: int, streams: np.ndarray) -> np.ndarray:
    """Counts of "+" on X, Y, Z of the qubits (I + blochs[i] . sigma)/2, basis b drawing on _basis_uniforms(streams)."""
    return _binomial_draws(shots, ((1.0 + blochs) / 2.0).ravel(), _basis_uniforms(streams).ravel()).reshape(-1, 3)


def tomograph(blochs: np.ndarray, shots: int, streams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts of "+" on X, Y, Z, MLE Bloch vectors, root steps) of each qubit; see _pauli_counts and reconstruct_mle."""
    plus = _pauli_counts(blochs, shots, streams)
    return (plus, *_mle(plus, shots))


def shots_and_seed(shots, seed) -> tuple[int, int]:
    """(shots, seed) as ints if shots is in [1, SHOTS_MAX] and seed in [0, 2**64) (numpy integers too); else a ValueError naming the field."""
    shots, seed = qcore.as_int("shots_per_basis", shots), qcore.as_int("seed", seed)
    if not 1 <= shots <= SHOTS_MAX:
        raise ValueError(f"shots_per_basis must be in [1, {SHOTS_MAX}], got {shots}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return shots, seed


@dataclass(frozen=True)
class TomographyRecord:
    """Per-basis (count_plus, count_minus) pairs from one tomography run, checked and stored as ints when made, then read-only."""

    shots_per_basis: int
    seed: int
    counts: dict[str, tuple[int, int]]

    def __post_init__(self):
        shots, seed = shots_and_seed(self.shots_per_basis, self.seed)
        if not isinstance(self.counts, dict):
            raise ValueError(f"counts must be a dict of count pairs by basis, got {self.counts!r}")
        if extra := [b for b in self.counts if b not in BASES]:
            raise ValueError(f"counts has keys other than X, Y and Z: {', '.join(map(repr, extra))}")
        object.__setattr__(self, "shots_per_basis", shots)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "counts", _Counts((b, _count_pair(b, self.counts.get(b), shots)) for b in BASES))

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
        if not isinstance(obj, dict):
            raise ValueError(f"a record is a JSON object with seed, shots and counts, got {text!r}")
        return cls(obj.get("shots"), obj.get("seed"), obj.get("counts"))


class _Counts(dict):
    """A record's checked count pairs by basis: a dict that refuses every change once made."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a TomographyRecord's counts cannot be changed after its check")

    __setitem__ = __delitem__ = __ior__ = update = pop = popitem = clear = setdefault = _refuse

    def __reduce__(self):  # pickle and deepcopy rebuild it from a plain dict, never through __setitem__
        return _Counts, (dict(self),)


def _count_pair(basis: str, pair, shots: int) -> tuple[int, int]:
    """pair as two non-negative ints that sum to shots, else a ValueError naming counts[basis]."""
    name = f"counts[{basis!r}]"
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        plus, minus = (qcore.as_int(name, c) for c in pair)
        if plus >= 0 and minus >= 0 and plus + minus == shots:
            return plus, minus
    raise ValueError(f"{name} must be a pair of non-negative counts that sum to {shots}, got {pair!r}")


def simulate_counts(rho, shots_per_basis: int, seed: int) -> TomographyRecord:
    """Draw shot-noisy Pauli-basis counts for a qubit state.

    count_plus for basis i is Binomial(shots, (1 + r_i) / 2), r = qcore.bloch_vector(rho), from the stream
    derive_stream(seed, i); deterministic for fixed (rho, shots, seed). For rho = bloch_state(r) the counts
    are the runner's for r only when bloch_vector(bloch_state(r)) == r: r_z can differ in the last bit,
    which at 2^53 shots can move a count by 1.
    """
    rho = qcore.ensure_density(rho, dim=2)
    shots_per_basis, seed = shots_and_seed(shots_per_basis, seed)
    stream = np.array([seed], dtype=np.uint64)
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


def _linear(plus: np.ndarray, shots: int) -> np.ndarray:
    """Bloch vectors s / max(1, |s|) of the linear estimate for "+" counts plus[i] on X, Y, Z (see reconstruct_linear)."""
    s = (2 * plus - shots) / shots
    return s / np.maximum(1.0, np.sqrt(np.vecdot(s, s)))[..., None]


def reconstruct_linear(record: TomographyRecord) -> ReconstructionResult:
    """Linear-inversion estimate with physical projection.

    Builds (I + r . sigma)/2 from the Stokes estimates s with r = s / max(1, |s|):
    the map that clips a negative eigenvalue of the candidate to zero and
    renormalizes the trace, which sends |s| > 1 onto the pure state along s.
    """
    bloch = _linear(np.array([[record.counts[b][0] for b in BASES]]), record.shots_per_basis)[0]
    return ReconstructionResult(state=qcore.bloch_state(bloch), method="linear", iterations=0, converged=True)


def _axis_roots(s: np.ndarray, s15: np.ndarray, mu: np.ndarray, unit: bool) -> np.ndarray:
    """Bloch components r(mu) of the boundary MLE, elementwise, given s15 = 1.5 s; unit says whether any |s| is 1.

    For |s| < 1, r is the root in (-1, 1) of (1+s)/(1+r) - (1-s)/(1-r) = 2 mu r,
    which is the middle real root of the cubic mu r^3 - (1 + mu) r + s = 0.
    For |s| = 1 the cubic factors as (r - s)(mu r^2 + s mu r - 1): r stays
    pinned at s up to mu = 1/2, where the cubic has its only double root,
    and follows the quadratic factor's root after that.
    """
    # trigonometric middle root, written as 2/a sin(arcsin(c)/3) so it has no cancellation as mu -> 0
    mu1 = 1.0 + mu
    a = np.sqrt(3.0 * mu / mu1)
    r = 2.0 / a * np.sin(np.arcsin(np.maximum(-1.0, np.minimum(1.0, s15 * a / mu1))) / 3.0)
    if unit:
        r = np.where(np.abs(s) == 1.0, np.where(mu <= 0.5, s, s * (np.sqrt(1.0 + 4.0 / np.maximum(mu, 0.5)) - 1.0) / 2.0), r)
    return r


def _mle(plus: np.ndarray, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """(Bloch vectors, root steps) of the closed-form MLE for "+" counts plus[i] on X, Y, Z (see reconstruct_mle)."""
    s, steps = (2 * plus - shots) / shots, np.zeros(len(plus), dtype=np.int64)
    rows = np.flatnonzero(np.vecdot(s, s) > 1.0)
    if not rows.size:
        return s, steps
    t = s[rows]
    q = t * t
    pinned, norm2 = (np.abs(t) == 1.0).any(axis=1), np.add.reduce(q, axis=1)
    unit, tol, t15, tiny = bool(pinned.any()), 4.0 * np.finfo(float).eps, 1.5 * t, np.finfo(float).tiny
    with np.errstate(all="ignore"):  # unguarded steps that take mu to 0 or below make nan, and the row takes the bracketed search
        # the root of |r(mu)|^2 ~ |s|^2 - 2 mu (|s|^2 - sum s_k^4) to O((|s| - 1)^2), or of its form past a unit axis's mu = 1/2
        mu = np.where(pinned, 0.5 + (norm2 - 1.0) / 6.0, np.maximum((np.sqrt(norm2) - 1.0) / (1.0 - np.add.reduce(q * q, axis=1) / (norm2 * norm2)), tiny))
        for _ in range(_FAST_STEPS):
            mu = _newton(t, t15, mu, unit)[2]
        r = _axis_roots(t, t15, mu[:, None], unit)
        h = np.add.reduce(r * r, axis=1) - 1.0
        s[rows] = r / np.sqrt(h + 1.0)[:, None]  # the bracketed search replaces the rows it takes
    steps[rows] = _FAST_STEPS + 1
    keep = ~(np.abs(h) <= 2.0 * tol)  # r(mu)'s rounding leaves |h| up to ~7 eps at the root; nan is kept
    if not keep.any():
        return s, steps
    rows, t, t15, pinned, norm2, mu = rows[keep], t[keep], t15[keep], pinned[keep], norm2[keep], mu[keep]
    # else r(mu) ~ s / (1 + mu) gives |s| - 1, kept above 0 (r(0) is 0/0); a unit axis stays pinned at s_k (h > 0) to mu = 1/2
    mu = np.where((mu > 0.0) & (mu < 1.5), mu, np.maximum(np.sqrt(norm2) - 1.0, tiny) + 0.5 * pinned)
    lo, hi, last = np.zeros_like(mu), np.full_like(mu, 1.5), np.full_like(mu, np.inf)
    for step in range(1, MLE_MAX_STEPS + 1):
        with np.errstate(all="ignore"):  # a 0/0 slope at a unit axis's mu = 1/2 only sends the row to the midpoint
            r, h, new = _newton(t, t15, mu, unit)
            up = h > 0.0
            np.copyto(lo, mu, where=up)
            np.copyto(hi, mu, where=~up)
            a = np.abs(h)
            newton = (lo < new) & (new < hi) & ((a <= 1e-8) | (a <= _NEWTON_GAIN * last))
        np.copyto(new, 0.5 * (lo + hi), where=~newton)
        done = (a <= tol) | (np.abs(new - mu) <= tol)
        if np.count_nonzero(done):
            s[rows[done]] = r[done] / np.sqrt(h[done] + 1.0)[:, None]
            steps[rows[done]] += step
            keep = ~done
            rows, t, t15, lo, hi, new, a = rows[keep], t[keep], t15[keep], lo[keep], hi[keep], new[keep], a[keep]
            if not rows.size:
                return s, steps
        mu, last = new, a
    raise RuntimeError(f"MLE multiplier search did not converge in {MLE_MAX_STEPS} steps: {plus[rows[0]]} of {shots}")


def _newton(t: np.ndarray, t15: np.ndarray, mu: np.ndarray, unit: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r(mu), h(mu) = |r(mu)|^2 - 1, the Newton point mu - h / h') of boundary rows t, with r_k' = (r_k - r_k^3) / (3 mu r_k^2 - 1 - mu)."""
    r = _axis_roots(t, t15, mu[:, None], unit)
    q = r * r
    h = np.add.reduce(q, axis=1) - 1.0
    return r, h, mu - h / (2.0 * np.add.reduce(q * (1.0 - q) / (3.0 * mu[:, None] * q - 1.0 - mu[:, None]), axis=1))


def reconstruct_mle(record: TomographyRecord) -> ReconstructionResult:
    """Closed-form maximum-likelihood estimate from Pauli-basis counts.

    Let s be the linear-inversion Stokes vector, s_k = (n+ - n-) / N.  If
    |s| <= 1 the MLE is r = s.  Otherwise it is the point on the unit sphere
    where n+/(1 + r_k) - n-/(1 - r_k) = 2 lambda r_k on each axis: for fixed
    mu = 2 lambda / N, r_k is the middle real root of
    mu r^3 - (1 + mu) r + s_k = 0 (trigonometric form), and |r(mu)| falls
    monotonically in mu on [0, 3/2], which brackets the multiplier.  Newton steps on h(mu) = |r(mu)|^2 - 1 take
    r_k' = (r_k - r_k^3) / (3 mu r_k^2 - 1 - mu) from the cubic.  Every record takes _FAST_STEPS of them unguarded,
    from mu = (|s| - 1) / (1 - sum_k s_k^4 / |s|^4) (h's root to O((|s| - 1)^2), at least the smallest normal float),
    or 1/2 + (|s|^2 - 1) / 6 if some |s_k| = 1, and stops with r / |r| if then |h| <= 8 eps.  The others go on from
    there if mu is in (0, 3/2), else from mu = |s| - 1 (above 0, plus 1/2 if some |s_k| = 1), in a bracket that
    the sign of h narrows: a step that leaves it, or that fails to shrink |h| by _NEWTON_GAIN while |h| > 1e-8,
    takes the midpoint; they stop with r / |r| when |h| <= 4 eps or the step moves mu by at most 4 eps.  So no
    record's steps depend on the other records of its stack.

    `iterations` counts the evaluations of r(mu): _FAST_STEPS + 1 if the unguarded steps solve the record, more
    if it goes on, 0 in the interior.  RuntimeError is raised if the bracketed search has not converged in
    MLE_MAX_STEPS more; the result is never an unconverged or blended iterate.  The tests check it
    against Hradil's iterative R-rho-R estimator (PRA 55, R1561, 1997).
    """
    bloch, steps = _mle(np.array([[record.counts[b][0] for b in BASES]]), record.shots_per_basis)
    return ReconstructionResult(state=qcore.bloch_state(bloch[0]), method="mle", iterations=int(steps[0]), converged=True)
