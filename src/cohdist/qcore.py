"""Dense complex-matrix algebra for one- and two-qubit density operators.

Conventions used throughout the package:

* two-qubit indices are ordered (Alice, Bob), i.e. bit 0 (most significant)
  is Alice, so the basis ordering is |HH>, |HV>, |VH>, |VV>;
* the incoherent reference basis is the computational {|H>, |V>} basis;
* entropies are in bits (log base 2) and 0*log(0) = 0.
"""

import numbers
from dataclasses import dataclass

import numpy as np

# the one tolerance policy of every density-matrix check (density_defects)
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
# keeps the entries of a two-qubit matrix whose Bob indices agree: dephasing on Bob
BOB_DIAGONAL = np.equal.outer(np.arange(4) % 2, np.arange(4) % 2)


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state invariant."""


@dataclass(frozen=True)
class ValidationReport:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    ok: bool


def as_int(name: str, value) -> int:
    """value as a Python int if it is an integer (a numpy one too, not a bool); else a ValueError naming the field."""
    if type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_unit_real(name: str, value) -> float:
    """value as a float if it is a real number in [0, 1] (a numpy one too, not a bool or nan); else a ValueError naming the field."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0.0 <= value <= 1.0:  # nan is out of range
        raise ValueError(f"{name} must be a real number in [0, 1], got {value!r}")
    return float(value)


def projector(psi) -> np.ndarray:
    """|psi><psi| for each state vector psi[..., :] of a stack."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi[..., None, :].conj()


def ensure_state_vector(psi) -> np.ndarray:
    """Return psi as a complex array, or raise if it is not a unit two-qubit (4,) ket."""
    try:
        psi = np.asarray(psi, dtype=complex)
    except (TypeError, ValueError, OverflowError) as e:  # "x", a ragged list, an entry that is not a number
        raise InvalidStateError(f"state vector is not an array of numbers: {e}") from e
    if psi.shape != (4,):
        raise InvalidStateError(f"expected a two-qubit state vector of shape (4,), got shape {psi.shape}")
    norm_sq = float(np.vdot(psi, psi).real)
    if not abs(norm_sq - 1.0) <= TRACE_TOL:  # a nan norm fails too
        raise InvalidStateError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")
    return psi


def density_defects(rho):
    """(hermiticity defect, trace defect, Hermitian-part spectrum, ok) of each matrix in a (..., d, d) stack."""
    adjoint = rho.conj().swapaxes(-1, -2)
    herm = np.abs(rho - adjoint).max(axis=(-2, -1))
    trace = np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0)
    part = (rho + adjoint) / 2.0  # the Hermitian part's spectrum is defined for any input
    try:
        eigs = np.linalg.eigvalsh(part)
    except np.linalg.LinAlgError:  # no convergence on a nan or inf entry: a matrix with one gets a nan spectrum, so fails
        finite = np.isfinite(part).all(axis=(-2, -1))[..., None]
        eigs = np.where(finite, np.linalg.eigvalsh(np.where(finite[..., None], part, 0.0)), np.nan)
    return herm, trace, eigs, (herm <= HERMITICITY_TOL) & (trace <= TRACE_TOL) & (eigs[..., 0] >= -EIGENVALUE_TOL)


def validate_density(rho) -> ValidationReport:
    """Measure hermiticity/trace/positivity defects of a candidate density matrix.

    Reporting only: never raises, even on malformed input.
    """
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # not an array of numbers: the shape check below fails it
        rho = np.empty(0)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4) or not np.isfinite(rho).all():
        return ValidationReport(np.inf, np.inf, -np.inf, False)
    herm, trace, eigs, ok = density_defects(rho)
    return ValidationReport(float(herm), float(trace), float(eigs[0]), bool(ok))


def density_spectrum(rho, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rho as a complex array, the spectrum of its Hermitian part), or raise InvalidStateError."""
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidStateError(f"density matrix is not an array of numbers: {e}") from e
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4):
        raise InvalidStateError(f"expected a 2x2 or 4x4 density matrix, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvalidStateError(f"expected a {dim}x{dim} density matrix, got {rho.shape[0]}x{rho.shape[0]}")
    if not np.isfinite(rho).all():
        raise InvalidStateError("density matrix has non-finite entries")
    _, _, eigs, ok = density_defects(rho)
    if not ok:
        raise InvalidStateError(f"invalid density matrix: {validate_density(rho)}")
    return rho, eigs


def ensure_density(rho, dim: int | None = None) -> np.ndarray:
    """Return rho as a complex array, or raise InvalidStateError."""
    return density_spectrum(rho, dim)[0]


def bloch_state(r) -> np.ndarray:
    """The qubit density matrix (I + r . sigma) / 2."""
    return (IDENTITY_2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2.0


def bloch_vector(rho) -> np.ndarray:
    """The Bloch vector r of each qubit density matrix (I + r . sigma) / 2 of a (..., 2, 2) stack."""
    return np.stack([2.0 * rho[..., 1, 0].real, 2.0 * rho[..., 1, 0].imag, (rho[..., 0, 0] - rho[..., 1, 1]).real], -1)


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced density matrix of subsystem `keep` ("A" or "B") of a two-qubit state."""
    rho = ensure_density(rho, dim=4)
    r = rho.reshape(2, 2, 2, 2)  # indices (a, b, a', b')
    if keep == "B":
        return np.trace(r, axis1=0, axis2=2)
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def entropy_bits(p) -> np.ndarray:
    """Entropy in bits along the last axis of a stack of probability vectors or spectra, clipped to [0, 1]."""
    p = np.clip(p, 0.0, 1.0)
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum_i lam_i log2(lam_i) in bits of a 2x2 or 4x4 density matrix (see ensure_density)."""
    return float(entropy_bits(density_spectrum(rho)[1]))


def qi_bound(rho, spectra) -> np.ndarray:
    """S(rho * BOB_DIAGONAL) - S(rho) in bits for each state of a validated (..., 4, 4) stack with the given spectra."""
    return entropy_bits(np.linalg.eigvalsh(rho * BOB_DIAGONAL)) - entropy_bits(spectra)


def negativity(rho) -> float:
    """Entanglement negativity of a two-qubit state.

    Sum of |negative eigenvalues| of the partial transpose over Bob; zero
    exactly for separable (PPT) states.
    """
    rho = ensure_density(rho, dim=4)
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0.0].sum()) + 0.0


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = ensure_density(rho)
    sigma = ensure_density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = sqrt_rho @ sigma @ sqrt_rho
    eigs = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    eigs[eigs < 1e-15] = 0.0  # sqrt amplifies round-off in vanishing eigenvalues
    f = float(np.sqrt(eigs).sum() ** 2)
    return min(max(f, 0.0), 1.0)
