"""Coherence quantifiers.

Relative entropy of coherence C_r(rho) = S(dephased rho) - S(rho), which also
equals the distillable coherence under incoherent operations; its
quantum-incoherent extension for bipartite states, which upper-bounds what any
assistance protocol can deliver to Bob; and the coherence of assistance, both
in closed form and as an independent numerical maximization over Alice's
measurement bases.
"""

from dataclasses import dataclass

import numpy as np

from . import protocol, qcore


@dataclass(frozen=True)
class CoherenceReport:
    c_r: float
    entropy_dephased: float
    entropy_state: float


def rel_entropy_coherence(rho) -> CoherenceReport:
    """Relative entropy of coherence of a state, in bits."""
    rho = np.asarray(rho, dtype=complex)
    s_state = qcore.von_neumann_entropy(rho)
    s_dephased = qcore.shannon_entropy(np.diag(rho).real)
    return CoherenceReport(s_dephased - s_state, s_dephased, s_state)


def qi_relative_entropy(rho_ab) -> float:
    """S(dephase_B(rho)) - S(rho) for a two-qubit state, in bits.

    Zero exactly on quantum-incoherent states sum_i p_i sigma_i^A x |i><i|^B;
    upper-bounds the ensemble-averaged coherence any single-copy measure-and-
    broadcast protocol can leave on Bob's side.
    """
    rho = qcore.ensure_density(rho_ab, dim=4)
    return qcore.von_neumann_entropy(qcore.dephase(rho, scope="B")) - qcore.von_neumann_entropy(rho)


def coa_closed_form(rho_b) -> float:
    """Coherence of assistance of a qubit state: S(dephased rho), in bits.

    For a qubit this single-copy quantity already equals its regularized
    (many-copy) value, so for pure two-qubit parents it is the distillable
    coherence Bob ends up with under optimal assistance.
    """
    rho = qcore.ensure_density(rho_b, dim=2)
    return qcore.shannon_entropy(np.diag(rho).real)


@dataclass(frozen=True)
class CoaResult:
    value: float
    argmax_basis: protocol.MeasurementBasis
    optimizer_trace: list


def coa_numeric(psi_ab, grid_res: int = 64, refine_iters: int = 30) -> CoaResult:
    """Maximize the ensemble-averaged post-measurement coherence numerically.

    Runs the protocol's basis search (a Bloch-hemisphere grid followed by
    per-coordinate golden-section refinement) on |psi><psi|; independent of,
    and checkable against, coa_closed_form on Bob's marginal.  Accepts pure
    parents only: decompositions of mixed Bob states are reached physically
    through a measurement on the purification.
    """
    psi = qcore.ensure_state_vector(psi_ab, dim=4)
    basis, value, trace = protocol._basis_search(qcore.projector(psi), grid_res, refine_iters)
    return CoaResult(value, basis, trace)
