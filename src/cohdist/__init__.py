"""Two-qubit assisted coherence-distillation simulator.

Alice measures her half of a shared two-qubit state and broadcasts the
outcome; Bob, restricted to incoherent operations, sorts his photons into
per-outcome ensembles.  The package provides the exact state factories, the
coherence quantifiers, the measurement protocol with analytic and numerical
basis optimization, a seeded shot-noise tomography pipeline, and a CLI
harness that regenerates theory curves and scores the bundled experimental
reference tables.
"""

from .coherence import (
    CoaResult,
    CoherenceReport,
    coa_closed_form,
    coa_numeric,
    qi_relative_entropy,
    rel_entropy_coherence,
)
from .qcore import (
    InvalidStateError,
    ValidationReport,
    fidelity,
    negativity,
    partial_trace,
    projector,
    validate_density,
    von_neumann_entropy,
)
from .protocol import (
    MeasurementBasis,
    Outcome,
    OutcomeSet,
    alice_measure,
    average_assisted_coherence,
    optimal_basis_pure,
    optimize_basis,
)
from .states import family1, family2, make_werner, singlet
from .tomography import (
    PRNG_ID,
    ReconstructionResult,
    TomographyRecord,
    derive_stream,
    reconstruct_linear,
    reconstruct_mle,
    simulate_counts,
)
from .harness import (
    VERSION as __version__,
    DeviationReport,
    ExperimentRow,
    RunConfig,
    compare_fixtures,
    parse_grid,
)

__all__ = [
    "__version__",
    "CoaResult",
    "CoherenceReport",
    "DeviationReport",
    "ExperimentRow",
    "InvalidStateError",
    "MeasurementBasis",
    "Outcome",
    "OutcomeSet",
    "PRNG_ID",
    "ReconstructionResult",
    "RunConfig",
    "TomographyRecord",
    "ValidationReport",
    "alice_measure",
    "average_assisted_coherence",
    "coa_closed_form",
    "coa_numeric",
    "compare_fixtures",
    "derive_stream",
    "family1",
    "family2",
    "fidelity",
    "make_werner",
    "negativity",
    "optimal_basis_pure",
    "optimize_basis",
    "parse_grid",
    "partial_trace",
    "projector",
    "qi_relative_entropy",
    "reconstruct_linear",
    "reconstruct_mle",
    "rel_entropy_coherence",
    "simulate_counts",
    "singlet",
    "validate_density",
    "von_neumann_entropy",
]
