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
    """Relative entropy of coherence of a 2x2 or 4x4 density matrix, in bits."""
    s_state = qcore.von_neumann_entropy(rho)  # validates rho
    s_dephased = float(qcore.entropy_bits(np.diag(np.asarray(rho, dtype=complex)).real))
    return CoherenceReport(s_dephased - s_state, s_dephased, s_state)


def qi_relative_entropy(rho_ab) -> float:
    """S(dephase_B(rho)) - S(rho) for a two-qubit state, in bits (qcore.qi_bound, as the runner's bound_qi).

    Zero exactly on quantum-incoherent states sum_i p_i sigma_i^A x |i><i|^B;
    upper-bounds the ensemble-averaged coherence any single-copy measure-and-
    broadcast protocol can leave on Bob's side.
    """
    return float(qcore.qi_bound(*qcore.density_spectrum(rho_ab, dim=4)))


def coa_closed_form(rho_b) -> float:
    """Coherence of assistance of a qubit state: S(dephased rho), in bits.

    For a qubit this single-copy quantity already equals its regularized
    (many-copy) value, so for pure two-qubit parents it is the distillable
    coherence Bob ends up with under optimal assistance.
    """
    return float(qcore.entropy_bits(np.diag(qcore.ensure_density(rho_b, dim=2)).real))


@dataclass(frozen=True)
class CoaResult:
    value: float
    argmax_basis: protocol.MeasurementBasis
    optimizer_trace: list
    converged: bool


def coa_numeric(psi_ab, grid_res: int = protocol.GRID_RES_DEFAULT, refine_iters: int = 30) -> CoaResult:
    """Maximize the ensemble-averaged post-measurement coherence numerically.

    Runs the protocol's basis search on |psi><psi| (a grid_res x grid_res Bloch-hemisphere grid, 16 x 16 by
    default, then up to refine_iters Newton steps on the sphere that also climb flat ridges; see
    protocol._basis_search).  optimizer_trace holds ((theta, phi), value) after the grid and each step;
    converged says whether the tangent gradient at argmax_basis met protocol.NEWTON_GTOL (a search cut at
    refine_iters steps returns False, never raises), a local statement about one climb from the grid argmax.
    Checkable against coa_closed_form on Bob's marginal.
    Pure parents only: decompositions of mixed Bob states are reached through a measurement on the purification."""
    psi = qcore.ensure_state_vector(psi_ab)
    basis, value, trace, converged = protocol._basis_search(qcore.projector(psi), grid_res, refine_iters)
    return CoaResult(value, basis, trace, converged)
