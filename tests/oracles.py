"""Independent closed-form oracles shared by the tests.

Everything here is computed directly from elementary formulas (binary
entropy, explicit eigenvalues, index arithmetic) so it stays independent of
the library code paths it is used to check.  The reference algorithms (the
R-rho-R MLE, the eigenvalue-clipping linear inversion, the dense
measurement map, the dense golden-section basis search, the scalar
pure-parent basis rule, the per-record scalar sampler, and the per-point
dense runner) are the slow ones the library replaced with closed forms or
batched numpy; the scalar MLE runs the library's guarded Newton solve one
record at a time, and the multi-start search ascends the dense map by finite
differences from a coarse dense grid, sharing nothing with the library's
search but the basis parametrization.  The basis search and
the runner measure through the dense map here (4x4 projectors, partial
traces), not through the library's Pauli-coordinate closed form; the map
builds Alice's projectors (I +- n.sigma) / 2 from the basis' Bloch vector n
with bloch_rho, so it takes nothing about the basis from the library.
The broadcast map (outcomes_broadcast, qubit_coherence_broadcast,
coherence_gradient_broadcast) is the measurement map as one (..., 3)
broadcast with np.linalg.norm(axis=-1), the layout the library's
components-first buffer replaced; the tests hold the two to the same bits.
five_point_model is the basis search's tangent model with its Hessian by
central differences of the closed-form gradient (coherence_gradient), the
rule the library's closed-form Hessian in Python floats replaced.
The CSV oracles (emit_csv_oracle, deviation_csv_oracle, parse_rows_csv_oracle)
are the per-cell str.format writers and the per-line parser that the
library's one-printf-per-block writer and one-split parser replaced.
"""

import json
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from cohdist import harness, protocol, qcore, states, tomography
from cohdist.coherence import qi_relative_entropy, rel_entropy_coherence
from cohdist.harness import ExperimentRow
from cohdist.protocol import (
    ZERO_PROB_TOL,
    MeasurementBasis,
    Outcome,
    OutcomeSet,
)
from cohdist.tomography import BASES, MLE_MAX_STEPS, ReconstructionResult, SplitMix64, TomographyRecord, derive_stream

# |H>, |V>, |x+->, |y+->: the tests' named kets, which no library code needs
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_X_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_X_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
KET_Y_PLUS = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
KET_Y_MINUS = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)


def shannon(probs) -> float:
    return float(sum(-p * math.log2(p) for p in probs if p > 0.0))


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def family1_after(theta_deg: float) -> float:
    """Post-assistance coherence for the first pure family: H2(cos^2 2t)."""
    return h2(math.cos(math.radians(2.0 * theta_deg)) ** 2)


def family2_before(theta_deg: float) -> float:
    """Bob-marginal coherence for the second pure family."""
    c = math.cos(math.radians(4.0 * theta_deg))
    total = 0.0
    for s in (1.0 + c, 1.0 - c):
        if s > 0.0:
            total += s * math.log2(s)
    return 0.5 * total


def werner_after(p: float) -> float:
    """Post-assistance coherence of the Werner family."""
    total = (1.0 + p) * math.log2(1.0 + p)
    if p < 1.0:
        total += (1.0 - p) * math.log2(1.0 - p)
    return 0.5 * total


def werner_qi_bound(p: float) -> float:
    """Quantum-incoherent relative entropy of the Werner family."""
    total = (1.0 + 3.0 * p) * math.log2(1.0 + 3.0 * p) - 2.0 * (1.0 + p) * math.log2(1.0 + p)
    if p < 1.0:
        total += (1.0 - p) * math.log2(1.0 - p)
    return 0.25 * total


def werner_negativity(p: float) -> float:
    return max(0.0, (3.0 * p - 1.0) / 4.0)


def bloch_rho(nx: float, ny: float, nz: float) -> np.ndarray:
    """Qubit state (I + n . sigma) / 2 written out entrywise."""
    return 0.5 * np.array(
        [[1.0 + nz, nx - 1j * ny], [nx + 1j * ny, 1.0 - nz]], dtype=complex
    )


def binomial_cdf_exact(n: int, p: float, k: int) -> float:
    """Exact-arithmetic-ish binomial CDF via math.comb."""
    return float(sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k + 1)))


# Pauli-basis projectors in the tomography's (plus, minus) order for X, Y, Z
PAULI_PROJECTORS = (
    bloch_rho(1.0, 0.0, 0.0), bloch_rho(-1.0, 0.0, 0.0),
    bloch_rho(0.0, 1.0, 0.0), bloch_rho(0.0, -1.0, 0.0),
    bloch_rho(0.0, 0.0, 1.0), bloch_rho(0.0, 0.0, -1.0),
)


def record_counts(record) -> np.ndarray:
    """The six counts of a TomographyRecord in PAULI_PROJECTORS order."""
    return np.array([record.counts[b][which] for b in "XYZ" for which in (0, 1)], dtype=float)


def stokes(record) -> np.ndarray:
    """The record's Pauli expectation estimates s = (2 count_plus - shots) / shots."""
    n = record.shots_per_basis
    return np.array([(2 * record.counts[b][0] - n) / n for b in BASES])


def loglik(record, rho: np.ndarray) -> float:
    """sum_j n_j log tr(P_j rho) over the observed outcomes (n_j > 0)."""
    counts = record_counts(record)
    probs = np.array([float((proj @ rho).trace().real) for proj in PAULI_PROJECTORS])
    observed = counts > 0.0
    return float((counts[observed] * np.log(probs[observed])).sum())


@dataclass(frozen=True)
class RRRResult:
    state: np.ndarray
    iterations: int
    converged: bool
    blended: bool
    loglik_trace: tuple[float, ...]


def mle_rrr_oracle(record, max_iters: int = 500, tol: float = 1e-10) -> RRRResult:
    """Maximum-likelihood estimate via Hradil's iterative R-rho-R fixed point.

    Z. Hradil, PRA 55, R1561 (1997).  R(rho) = sum_j (f_j / tr(P_j rho)) P_j
    over the six Pauli projectors with observed frequencies
    f_j = count_j / (3 * shots); iterate rho <- normalize(R rho R) from I/2
    until the trace distance between iterates drops below tol.  If a
    projector has f_j > 0 but vanishing predicted probability, the iterate is
    blended with 1e-6 * I and the iteration continues (flagged via
    `blended`).  The log-likelihood of each iterate is recorded in
    loglik_trace.  Near pure states it often stops at max_iters unconverged
    (Rehacek et al., PRA 75, 042108, 2007), so its value is a lower bound on
    the maximum likelihood, not the maximum.
    """
    counts = record_counts(record)
    freqs = counts / (3.0 * record.shots_per_basis)

    rho = np.eye(2, dtype=complex) / 2.0
    trace = []
    blended = False
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        probs = np.array([float((proj @ rho).trace().real) for proj in PAULI_PROJECTORS])
        if np.any((freqs > 0.0) & (probs < 1e-15)):
            rho = (rho + 1e-6 * np.eye(2, dtype=complex)) / (1.0 + 2e-6)
            blended = True
            continue
        observed = counts > 0.0
        trace.append(float((counts[observed] * np.log(probs[observed])).sum()))
        r_op = np.zeros((2, 2), dtype=complex)
        for f, p, proj in zip(freqs, probs, PAULI_PROJECTORS):
            if f > 0.0:
                r_op += (f / p) * proj
        new = r_op @ rho @ r_op
        new /= new.trace().real
        new = (new + new.conj().T) / 2.0
        step = 0.5 * float(np.abs(np.linalg.eigvalsh(new - rho)).sum())
        rho = new
        if step < tol:
            converged = True
            break
    return RRRResult(
        state=rho,
        iterations=iterations,
        converged=converged,
        blended=blended,
        loglik_trace=tuple(trace),
    )


def linear_clip_oracle(record) -> ReconstructionResult:
    """Linear inversion by eigenvalue clipping: a negative eigenvalue of (I + s . sigma)/2 goes to 0, then renormalize."""
    cand = qcore.bloch_state(stokes(record))
    w, v = np.linalg.eigh(cand)
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        cand = (v * w) @ v.conj().T
    cand = (cand + cand.conj().T) / 2.0
    return ReconstructionResult(state=cand, method="linear", iterations=0, converged=True)


def _measure(rho: np.ndarray, basis: MeasurementBasis) -> OutcomeSet:
    """The dense measurement map: p_i = tr[(P_i x I) rho], Bob's state Tr_A[(P_i x I) rho (P_i x I)] / p_i.

    P_+- = (I +- n.sigma) / 2 for the basis' Bloch vector n, written out by bloch_rho.
    """
    n = np.array(basis.bloch)
    outcomes = []
    for label, sign in (("+", 1.0), ("-", -1.0)):
        proj = np.kron(bloch_rho(*(sign * n)), np.eye(2))
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


def dense_average(outcomes: OutcomeSet) -> float:
    """sum_i p_i C_r(bob_state_i), each C_r by eigvalsh (rel_entropy_coherence), not by protocol._qubit_coherence."""
    return sum((o.prob * rel_entropy_coherence(o.bob_state).c_r for o in outcomes if o.prob > 0.0), 0.0)


def dense_assisted_coherence(rho: np.ndarray, theta: float, phi: float) -> float:
    """Average assisted coherence of the Alice basis at (theta, phi), via 4x4 projectors and eigvalsh."""
    return dense_average(_measure(rho, MeasurementBasis.from_angles(theta, phi)))


def outcomes_broadcast(n: np.ndarray, a, b, t) -> tuple[np.ndarray, np.ndarray]:
    """protocol._outcomes with r built as one (2, ..., 3) broadcast: (b +- T^t n) / (2 p+-), C-contiguous."""
    if n.ndim > 1 and a.ndim == 1:
        na, tn = (n @ a[:, None])[..., 0], n @ t
    else:
        na, tn = (n[..., None, :] @ a[..., None])[..., 0, 0], (n[..., None, :] @ t)[..., 0, :]
    sign = np.array([1.0, -1.0]).reshape(2, *[1] * na.ndim)
    p = (1.0 + sign * na) / 2.0
    kept = p >= ZERO_PROB_TOL
    r = (b + sign[..., None] * tn) / (2.0 * np.where(kept, p, 1.0))[..., None]
    return np.where(kept, p, 0.0), r


def qubit_coherence_broadcast(r: np.ndarray) -> np.ndarray:
    """protocol._qubit_coherence with |r| by np.linalg.norm(r, axis=-1)."""
    return protocol._qubit_entropy(r[..., 2]) - protocol._qubit_entropy(np.linalg.norm(r, axis=-1))


def coherence_gradient(r: np.ndarray) -> np.ndarray:
    """Gradient (atanh(|r|) r / |r| - atanh(r_z) e_z) / ln 2 of protocol._qubit_coherence at r[..., :], elementwise.

    |r| (protocol._norm) and |r_z| are clipped at 1 - 2^-53, so a pure outcome's |r| term (tangent part 0 up to
    rounding) gets the factor atanh(1 - 2^-53) ~ 18.7, not atanh(1) = inf."""
    s, top = protocol._norm(r)[..., None], 1.0 - 2.0**-53
    grad = np.arctanh(np.minimum(s, top)) / np.where(s > 0.0, s, 1.0) * r
    grad[..., 2] -= np.arctanh(np.clip(r[..., 2], -top, top))
    return grad / math.log(2.0)


def coherence_gradient_broadcast(r: np.ndarray) -> np.ndarray:
    """coherence_gradient with |r| by np.linalg.norm(r, axis=-1, keepdims=True)."""
    s, top = np.linalg.norm(r, axis=-1, keepdims=True), 1.0 - 2.0**-53
    grad = np.arctanh(np.minimum(s, top)) / np.where(s > 0.0, s, 1.0) * r
    grad[..., 2] -= np.arctanh(np.clip(r[..., 2], -top, top))
    return grad / math.log(2.0)


NEWTON_H = 1e-5  # the central-difference offset of five_point_model
_CHART_X = NEWTON_H * np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
_CHART_SCALE = np.sqrt(1.0 + (_CHART_X * _CHART_X).sum(-1))[:, None]  # |n + x frame|, exactly 1 at x = 0


def chart_points(n: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The five Bloch vectors (n + x frame) / |n + x frame| of five_point_model, x = 0 then +-NEWTON_H e_1, +-NEWTON_H e_2."""
    return (n + _CHART_X @ frame) / _CHART_SCALE


def five_point_model(theta: float, phi: float, coords):
    """The tangent model the library's closed-form protocol._local_model replaced: (n, frame, value, gradient, Hessian).

    Gradient and Hessian are those of g(x) = f((n + x frame) / |n + x frame|) at x = 0, the gradient in closed form
    (sum_+- +-[a C_r(r+-) + (T - a r+-^t) grad C_r(r+-)] / 2, projected on the tangent plane and pulled back to the
    chart), the Hessian by central differences of that gradient at x = +-NEWTON_H e_i; the five points are scored in
    one protocol._outcomes call, and a zero-probability outcome adds 0."""
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    n, frame = np.array([st * cp, st * sp, ct]), np.array([[ct * cp, ct * sp, -st], [-sp, cp, 0.0]])
    m, (a, b, t) = chart_points(n, frame), coords
    p, r = protocol._outcomes(m, a, b, t)
    c, dc = protocol._qubit_coherence(r), coherence_gradient(r)
    term = np.where((p > 0.0)[..., None], (c - (r * dc).sum(-1))[..., None] * a + dc @ t.T, 0.0)
    grad = (term[0] - term[1]) / 2.0
    tangent = (grad - (grad * m).sum(-1, keepdims=True) * m) @ frame.T / _CHART_SCALE
    d = (tangent[1::2] - tangent[2::2]) / (2.0 * NEWTON_H)  # d[i] = dg/dx_i
    return n, frame, float(sum(p * c)[0]), tangent[0], (d + d.T) / 2.0


def _golden_max(f, lo: float, hi: float, steps: int = 16) -> float:
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - gold * (hi - lo), lo + gold * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - gold * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gold * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SearchResult:
    grid_index: tuple[int, int]
    value: float
    trace: list


def basis_search_oracle(rho: np.ndarray, grid_res: int, refine_iters: int) -> SearchResult:
    """The dense loop search over Alice's bases that the batched search replaced.

    Scores the grid_res x grid_res hemisphere grid one basis at a time with
    dense_assisted_coherence (theta-major, strict > so ties keep the smallest
    (theta, phi)), then refines by the per-coordinate golden-section schedule
    the batched zoom replaced: brackets of one grid step, 16 shrinks each,
    shrunk by 0.7 per iteration.  The value is the best objective seen
    anywhere.
    """
    best = {"theta": 0.0, "phi": 0.0, "value": -np.inf}

    def f(theta, phi):
        v = dense_assisted_coherence(rho, theta, phi)
        if v > best["value"]:
            best.update(theta=theta, phi=phi, value=v)
        return v

    grid_index = (0, 0)
    for i, theta in enumerate(np.linspace(0.0, math.pi / 2.0, grid_res)):
        for j, phi in enumerate((2.0 * math.pi / grid_res) * np.arange(grid_res)):
            running = best["value"]
            if f(float(theta), float(phi)) > running:
                grid_index = (i, j)
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
    return SearchResult(grid_index, best["value"], trace)


def _angles(v: np.ndarray) -> tuple[float, float]:
    return math.atan2(math.hypot(v[0], v[1]), v[2]), math.atan2(v[1], v[0])


def dense_assisted_coherences(rho: np.ndarray, angles) -> np.ndarray:
    """dense_assisted_coherence at each (theta, phi) of angles, as one batch of 4x4 projectors, partial traces and eigvalsh."""
    theta, phi = np.asarray(angles, dtype=float).reshape(-1, 2).T
    n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
    n = np.concatenate([n, -n])  # outcome + of every basis, then outcome -
    alice = (np.eye(2) + np.einsum("ki,ijl->kjl", n, np.stack([qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z]))) / 2.0
    proj = np.einsum("kac,bd->kabcd", alice, np.eye(2)).reshape(-1, 4, 4)  # kron(alice, I)
    m = proj @ rho @ proj
    p = np.einsum("kii->k", m).real
    kept = p >= ZERO_PROB_TOL
    bob = np.einsum("kabad->kbd", m.reshape(-1, 2, 2, 2, 2)) / np.where(kept, p, 1.0)[:, None, None]
    bob = np.where(kept[:, None, None], (bob + bob.conj().swapaxes(-1, -2)) / 2.0, np.eye(2) / 2.0)  # I / 2 where p = 0
    bob /= np.einsum("kii->k", bob).real[:, None, None]
    c_r = qcore.entropy_bits(np.einsum("kii->ki", bob).real) - qcore.entropy_bits(np.linalg.eigvalsh(bob))
    return np.where(kept, p * c_r, 0.0).reshape(2, -1).sum(axis=0)


def _dense_ascent(rho: np.ndarray, theta: float, phi: float, steps: int, h: float = 1e-4) -> float:
    """Best dense_assisted_coherences value seen on a modified Newton ascent from (theta, phi).

    Each step fits the value's gradient and Hessian by central differences (9 dense evaluations, one batch) in
    the chart x -> (n + x1 e_theta + x2 e_phi) / |...| at the current basis n, steps by |H|^-1 g with
    |eigenvalues| floored at 1e-6, and halves that step until the value does not fall.  It stops after
    `steps` steps, when no step longer than 1e-10 raises the value, or after a step of at most 1e-8.
    """
    def chart(theta, phi):
        st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
        n, e1, e2 = np.array([st * cp, st * sp, ct]), np.array([ct * cp, ct * sp, -st]), np.array([-sp, cp, 0.0])
        return lambda x: _angles(n + x[0] * e1 + x[1] * e2)

    value = float(dense_assisted_coherences(rho, [(theta, phi)])[0])
    for _ in range(steps):
        to_angles = chart(theta, phi)
        offsets = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        f = dict(zip(offsets, dense_assisted_coherences(rho, [to_angles((i * h, j * h)) for i, j in offsets]).tolist()))
        grad = np.array([f[1, 0] - f[-1, 0], f[0, 1] - f[0, -1]]) / (2.0 * h)
        cross = (f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1]) / 4.0
        hess = np.array([[f[1, 0] - 2.0 * f[0, 0] + f[-1, 0], cross], [cross, f[0, 1] - 2.0 * f[0, 0] + f[0, -1]]]) / (h * h)
        w, v = np.linalg.eigh(hess)
        step = v @ ((v.T @ grad) / np.maximum(np.abs(w), 1e-6))
        while np.linalg.norm(step) > 1e-10:
            trial = float(dense_assisted_coherences(rho, [to_angles(step)])[0])
            if trial >= value:
                (theta, phi), value = to_angles(step), trial
                break
            step = step / 2.0
        if np.linalg.norm(step) <= 1e-8:  # within ~1e-8 of the optimum: its value is off by ~|H| 1e-16
            break
    return value


def multistart_search_oracle(rho: np.ndarray, starts: int = 2, steps: int = 10) -> float:
    """A reference optimum of the dense map over Alice's bases, independent of protocol's search.

    Scores a 5 x 8 hemisphere grid (theta at 9, 27, ..., 81 degrees, phi every 45 degrees) with
    dense_assisted_coherences and returns the best value of _dense_ascent from each of its `starts` best points.
    """
    grid = [(math.radians(t), math.radians(p)) for t in range(9, 90, 18) for p in range(0, 360, 45)]
    values = dense_assisted_coherences(rho, grid).tolist()
    scored = [angles for _, angles in sorted(zip(values, grid), key=lambda pair: -pair[0])]
    return max(_dense_ascent(rho, theta, phi, steps) for theta, phi in scored[:starts])


def bloch_vector(ket) -> np.ndarray:
    """Bloch vector of a single-qubit pure state."""
    a, b = np.asarray(ket, dtype=complex)
    cross = np.conj(a) * b
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2])


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    tol = 1e-12
    if n[1] < -tol or (abs(n[1]) <= tol and (n[0] < -tol or (abs(n[0]) <= tol and n[2] < 0.0))):
        return -n
    return n


def optimal_basis_pure_oracle(psi) -> MeasurementBasis:
    """The pure-parent basis rule of optimal_basis_pure, written apart: a basis unbiased against Alice's vectors.

    Alice's normalized vectors |Psi_k> for Bob's |k> (norm > 1e-9) give
    Bloch vectors; two independent ones give their canonical cross product,
    otherwise the unit vector orthogonal to the first with maximal y, and +x
    when that one is +-y.
    """
    amps = np.asarray(psi, dtype=complex).reshape(2, 2)  # (alice, bob)
    blochs = []
    for k in (0, 1):
        a_k = amps[:, k]
        norm = float(np.linalg.norm(a_k))
        if norm > 1e-9:
            blochs.append(bloch_vector(a_k / norm))
    if len(blochs) == 2:
        cross = np.cross(blochs[0], blochs[1])
        norm = float(np.linalg.norm(cross))
        if norm >= 1e-9:
            return MeasurementBasis(tuple(_canonical_direction(cross / norm)))
    n0 = blochs[0]
    y_perp = np.array([0.0, 1.0, 0.0]) - n0[1] * n0
    norm = float(np.linalg.norm(y_perp))
    if norm < 1e-9:
        return MeasurementBasis((1.0, 0.0, 0.0))
    return MeasurementBasis(tuple(y_perp / norm))


# --- the per-record scalar sampler that the batched tomography replaced, and its MLE one record at a time ---

def normal_quantile(u: float) -> float:
    """Bisection on Phi(z) = u: 100 halvings of [-40, 40], no early exit."""
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _binomial_terms_full(n: int, p: float) -> np.ndarray:
    """pmf(k) / pmf(mode) of Binomial(n, p) for k = 0..n, 0 < p < 1: the two-sided ratio recurrence from the mode at 1.0."""
    mode = min(n, int((n + 1) * p))
    terms = np.zeros(n + 1)
    terms[mode] = 1.0
    if mode < n:
        k = np.arange(mode, n, dtype=float)
        terms[mode + 1 :] = np.cumprod((n - k) / (k + 1.0) * (p / (1.0 - p)))
    if mode > 0:
        k = np.arange(mode, 0, -1, dtype=float)
        terms[mode - 1 :: -1] = np.cumprod(k / (n - k + 1.0) * ((1.0 - p) / p))
    return terms


def binomial_pmf_full(n: int, p: float) -> np.ndarray:
    """Every pmf term of Binomial(n, p), 0 < p < 1: the recurrence's terms over their sum."""
    terms = _binomial_terms_full(n, p)
    return terms / terms.sum()


def binomial_cdf_full(n: int, p: float) -> np.ndarray:
    """F(k) of Binomial(n, p) for k = 0..n, 0 < p < 1: the recurrence's terms summed from 0, over their total."""
    cdf = np.cumsum(_binomial_terms_full(n, p))
    return cdf / cdf[-1]


def _binomial_inverse_cdf(u: float, n: int, p: float) -> int:
    """min{k : F(k) >= u} over the full support 0..n."""
    return int(np.searchsorted(binomial_cdf_full(n, p), u, side="left"))


def binomial_draw_oracle(n: int, p: float, u: float) -> int:
    """The scalar sampler: full-support inversion up to 10_000 shots, the normal approximation above."""
    u = max(u, 2.0 ** -53)
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or n == 0:
        return 0
    if p == 1.0:
        return n
    if n <= 10_000:
        return _binomial_inverse_cdf(u, n, p)
    z = normal_quantile(u) if u <= 0.5 else -normal_quantile(1.0 - u)  # Phi rounds near 1, not near 0
    k = math.floor(n * p + z * math.sqrt(n * p * (1.0 - p)) + 0.5)
    return min(max(int(k), 0), n)


# the '+' kets of the X, Y and Z bases, written out here rather than read from qcore
_PLUS_KETS = (
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 0.0], dtype=complex),
)


def simulate_counts_oracle(rho: np.ndarray, shots: int, seed: int) -> TomographyRecord:
    """One record: p+ = <ket+|rho|ket+> per basis, one draw on SplitMix64(derive_stream(seed, basis))."""
    counts = {}
    for i, (b, ket) in enumerate(zip(BASES, _PLUS_KETS)):
        p_plus = float(np.vdot(ket, rho @ ket).real)
        k = binomial_draw_oracle(shots, p_plus, SplitMix64(derive_stream(seed, i)).next_float())
        counts[b] = (k, shots - k)
    return TomographyRecord(shots_per_basis=shots, seed=seed, counts=counts)


def _axis_root(s: float, mu: float) -> float:
    """tomography._axis_roots for one component, with numpy's arcsin and sin on a scalar."""
    if abs(s) == 1.0:
        return s if mu <= 0.5 else s * (math.sqrt(1.0 + 4.0 / mu) - 1.0) / 2.0
    a = math.sqrt(3.0 * mu / (1.0 + mu))
    return 2.0 / a * float(np.sin(np.arcsin(max(-1.0, min(1.0, 1.5 * s * a / (1.0 + mu)))) / 3.0))


def mle_oracle(record) -> tuple[np.ndarray, int]:
    """(Bloch vector, root steps) of the closed-form MLE, one record at a time in scalar floats.

    The guarded Newton iteration of tomography._mle on |r(mu)|^2 = 1: from mu = |s| - 1, or the smallest
    normal float if that rounds to 0 (+ 1/2 with a unit axis), take the Newton point mu - h / h' while it
    stays inside the bracket [lo, hi] that h's sign keeps, and while it shrinks |h| by _NEWTON_GAIN
    (or |h| <= 1e-8); else take the midpoint.
    Stop when |h| <= 4 eps or the step moves mu by at most 4 eps.
    """
    s = stokes(record)
    if float(s @ s) <= 1.0:
        return s, 0
    tol, s = 4.0 * np.finfo(float).eps, s.tolist()
    mu = max(math.sqrt(sum(x * x for x in s)) - 1.0, float(np.finfo(float).tiny)) + (0.5 if 1.0 in map(abs, s) else 0.0)
    lo, hi, last = 0.0, 1.5, math.inf
    for steps in range(1, MLE_MAX_STEPS + 1):
        r = [_axis_root(sk, mu) for sk in s]
        h = sum(rk * rk for rk in r) - 1.0
        lo, hi = (mu, hi) if h > 0.0 else (lo, mu)
        try:  # a zero or 0/0 slope leaves the bracket, as numpy's inf and nan do
            new = mu - h / (2.0 * sum(rk * rk * (1.0 - rk * rk) / (3.0 * mu * rk * rk - 1.0 - mu) for rk in r))
        except ZeroDivisionError:
            new = math.nan
        if not (lo < new < hi and (abs(h) <= 1e-8 or abs(h) <= tomography._NEWTON_GAIN * last)):
            new = 0.5 * (lo + hi)
        if abs(h) <= tol or abs(new - mu) <= tol:
            return np.array(r) / math.sqrt(h + 1.0), steps
        mu, last = new, abs(h)
    raise RuntimeError(f"MLE multiplier search did not converge in {MLE_MAX_STEPS} steps")


def _qubit_entropy_at(u: float) -> float:
    u = min(abs(u), 1.0)
    hi, lo = (1.0 + u) / 2.0, (1.0 - u) / 2.0
    return -(hi * math.log2(hi) + (lo * math.log2(lo) if lo > 0.0 else 0.0))


def tomographed_estimate(state: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The scalar MLE estimate, as a density matrix, from the scalar sampler's counts of one qubit state."""
    return qcore.bloch_state(mle_oracle(simulate_counts_oracle(state, shots, seed))[0])


def _tomographed_cr(state: np.ndarray, shots: int, seed: int) -> float:
    """C_r of tomographed_estimate in scalar floats, as the per-record runner scored it."""
    est = tomographed_estimate(state, shots, seed)
    r = (2.0 * est[1, 0].real, 2.0 * est[1, 0].imag, (est[0, 0] - est[1, 1]).real)
    return _qubit_entropy_at(r[2]) - _qubit_entropy_at(math.hypot(*r))


def dense_run_oracle(config) -> list[ExperimentRow]:
    """The per-point dense runner that run_experiment batched.

    For every grid point: build the state, depolarize it, take Bob's marginal
    by partial trace, measure Alice densely (_measure: 4x4 projectors,
    Bob states by partial trace) in optimal_basis_pure_oracle's basis (pure
    families) or the y basis (Werner), and score every state by eigvalsh
    (rel_entropy_coherence, dense_average, qi_relative_entropy).
    Sampled mode tomographs the dense Bob states on the same streams, one
    record at a time through the scalar sampler and MLE above
    (tomographed_estimate), and scores the estimates by eigvalsh too: index
    0 for the marginal, 1 and 2 for the outcomes with nonzero probability.
    """
    rows = []
    for g, param in enumerate(config.params):
        if config.kind == "werner":
            rho_ab, basis = states.make_werner(param), MeasurementBasis((0.0, 1.0, 0.0))
        else:
            psi = getattr(states, config.kind)(param)
            rho_ab, basis = qcore.projector(psi), optimal_basis_pure_oracle(psi)
        rho_ab = states.depolarize(rho_ab, config.epsilon_prep)
        rho_b = qcore.partial_trace(rho_ab, "B")
        outcomes = _measure(rho_ab, basis)
        before, after = rel_entropy_coherence(rho_b).c_r, dense_average(outcomes)
        before_sim, after_sim = before, after
        if config.mode == "sampled":
            shots = config.shots_per_basis
            before_sim = rel_entropy_coherence(tomographed_estimate(rho_b, shots, derive_stream(config.seed, g, 0))).c_r
            after_sim = 0.0
            for t, outcome in enumerate(outcomes, start=1):
                if outcome.prob > 0.0:
                    seed = derive_stream(config.seed, g, t)
                    estimate = tomographed_estimate(outcome.bob_state, shots, seed)
                    after_sim += outcome.prob * rel_entropy_coherence(estimate).c_r
        bound = qi_relative_entropy(rho_ab) if config.kind == "werner" else None
        rows.append(ExperimentRow(param, before, before_sim, after, after_sim, after_sim - before_sim, bound))
    return rows


def per_record_sampled_oracle(config) -> list[ExperimentRow]:
    """The per-record sampled runner that run_experiment batched, on the runner's own Bloch vectors.

    Alice measures along y for every kind.  The analytic rows, then for
    each grid point g: Bob's marginal b on
    stream (seed, g, 0) and each outcome t with p > 0 on (seed, g, t),
    one record at a time through _tomographed_cr's scalar sampler, MLE and
    scoring, weighted by the runner's outcome probabilities.
    """
    kind, shots = harness.KINDS[config.kind], config.shots_per_basis
    made = np.stack([kind.factory(x) for x in config.params])
    rho = made[:, :, None] * made[:, None, :].conj() if made.ndim == 2 else made
    rho = (1.0 - config.epsilon_prep) * rho + config.epsilon_prep * np.eye(4) / 4.0
    a, b, t = protocol._pauli_coordinates(rho)
    outcomes = list(zip(*protocol._outcomes(np.array([0.0, 1.0, 0.0]), a, b, t)))
    rows = []
    for g, row in enumerate(harness.run_experiment(replace(config, mode="analytic"))):
        before = _tomographed_cr(qcore.bloch_state(b[g]), shots, derive_stream(config.seed, g, 0))
        after = sum(
            float(p[g]) * _tomographed_cr(qcore.bloch_state(r[g]), shots, derive_stream(config.seed, g, s))
            for s, (p, r) in enumerate(outcomes, 1)
            if p[g] > 0.0
        )
        rows.append(row._replace(cd_before_sim=before, cd_after_sim=after, delta_sim=after - before))
    return rows


def emit_csv_oracle(rows, kind: str) -> str:
    """emit_csv as one "{:.6g}".format per cell and one string per line."""
    spec = harness.KINDS[kind]
    cells, line = operator.attrgetter(*spec.columns), ",".join(["{:.6g}"] * len(spec.columns))
    return "\n".join([spec.header] + [line.format(*cells(r)) for r in rows]) + "\n"


def deviation_csv_oracle(report) -> str:
    """DeviationReport.to_csv as one "{:.6g}".format per cell: param, then (fixture, theory, deviation) per column."""
    lines = [harness.DEVIATION_CSV_HEADER]
    for r in report.rows:
        cells = [r.param] + [v for column in zip(r.fixture, r.theory, r.deviation) for v in column]
        lines.append(",".join("{:.6g}".format(v) for v in cells))
    return "\n".join(lines) + "\n"


def parse_rows_csv_oracle(text: str) -> list[ExperimentRow]:
    """parse_rows_csv one line at a time: split, convert, check the cell count, derive cd_before_sim if absent."""
    header, *body = [ln for ln in text.strip().splitlines() if ln]
    columns = {kind.header: kind.columns for kind in harness.KINDS.values()}.get(header)
    if columns is None:
        raise ValueError(f"unrecognized CSV header: {header!r}")
    rows = []
    for ln in body:
        cells = list(map(float, ln.split(",")))
        if len(cells) != len(columns):
            raise ValueError(f"CSV row has {len(cells)} cells, expected {len(columns)}: {ln!r}")
        named = dict(zip(columns, cells))
        named.setdefault("cd_before_sim", named["cd_after_sim"] - named["delta_sim"])
        rows.append(ExperimentRow(**named))
    return rows


def parse_rows_json(text: str) -> tuple[dict, list[ExperimentRow]]:
    """(config, rows) of a JSON written by harness.emit_json."""
    payload = json.loads(text)
    return payload["config"], [ExperimentRow(**r) for r in payload["rows"]]
