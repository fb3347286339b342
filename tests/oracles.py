"""Independent closed-form oracles shared by the tests.

Everything here is computed directly from elementary formulas (binary
entropy, explicit eigenvalues, index arithmetic) so it stays independent of
the library code paths it is used to check.  The reference algorithms (the
R-rho-R MLE, the eigenvalue-clipping linear inversion, the dense
measurement map, the dense golden-section basis search, the scalar
pure-parent basis rule and the per-point dense runner) are the slow ones the
library replaced with closed forms or batched numpy; the basis search and
the runner measure through the dense map here (4x4 projectors, partial
traces), not through the library's Pauli-coordinate closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from cohdist import qcore, states
from cohdist.coherence import qi_relative_entropy, rel_entropy_coherence
from cohdist.harness import ExperimentRow
from cohdist.protocol import (
    ZERO_PROB_TOL,
    MeasurementBasis,
    Outcome,
    OutcomeSet,
    average_assisted_coherence,
    y_basis,
)
from cohdist.tomography import ReconstructionResult, derive_stream, reconstruct_mle, simulate_counts


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


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force index formula: out[(i,k),(j,l)] = a[i,j] * b[k,l]."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


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
    cand = qcore.bloch_state(record.stokes())
    w, v = np.linalg.eigh(cand)
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        cand = (v * w) @ v.conj().T
    cand = (cand + cand.conj().T) / 2.0
    return ReconstructionResult(state=cand, method="linear", iterations=0, converged=True)


def _measure(rho: np.ndarray, basis: MeasurementBasis) -> OutcomeSet:
    """The dense measurement map: p_i = tr[(P_i x I) rho], Bob's state Tr_A[(P_i x I) rho (P_i x I)] / p_i."""
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


def dense_assisted_coherence(rho: np.ndarray, theta: float, phi: float) -> float:
    """Average assisted coherence of the Alice basis at (theta, phi), via 4x4 projectors and eigvalsh."""
    return average_assisted_coherence(_measure(rho, MeasurementBasis.from_angles(theta, phi)))


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
    """The scalar pure-parent basis rule that optimal_basis_pure batched: a basis unbiased against Alice's vectors.

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


def _tomographed_cr(state: np.ndarray, shots: int, seed: int) -> float:
    return rel_entropy_coherence(reconstruct_mle(simulate_counts(state, shots, seed)).state).c_r


def dense_run_oracle(config) -> list[ExperimentRow]:
    """The per-point dense runner that run_experiment batched.

    For every grid point: build the state, depolarize it, take Bob's marginal
    by partial trace, measure Alice densely (_measure: 4x4 projectors,
    Bob states by partial trace) in optimal_basis_pure_oracle's basis (pure
    families) or the y basis (Werner), and score every state by eigvalsh
    (rel_entropy_coherence, average_assisted_coherence, qi_relative_entropy).
    Sampled mode tomographs the dense Bob states on the same streams: index
    0 for the marginal, 1 and 2 for the outcomes with nonzero probability.
    """
    rows = []
    for g, param in enumerate(config.params):
        if config.kind == "werner":
            rho_ab, basis = states.make_werner(param), y_basis()
        else:
            psi = states.make_pure(1 if config.kind == "family1" else 2, param)
            rho_ab, basis = qcore.projector(psi), optimal_basis_pure_oracle(psi)
        rho_ab = states.depolarize(rho_ab, config.epsilon_prep)
        rho_b = qcore.partial_trace(rho_ab, "B")
        outcomes = _measure(rho_ab, basis)
        before, after = rel_entropy_coherence(rho_b).c_r, average_assisted_coherence(outcomes)
        before_sim, after_sim = before, after
        if config.mode == "sampled":
            shots = config.shots_per_basis
            before_sim = _tomographed_cr(rho_b, shots, derive_stream(config.seed, g, 0))
            after_sim = 0.0
            for t, outcome in enumerate(outcomes, start=1):
                if outcome.prob > 0.0:
                    seed = derive_stream(config.seed, g, t)
                    after_sim += outcome.prob * _tomographed_cr(outcome.bob_state, shots, seed)
        bound = qi_relative_entropy(rho_ab) if config.kind == "werner" else None
        rows.append(ExperimentRow(param, before, before_sim, after, after_sim, after_sim - before_sim, bound))
    return rows
