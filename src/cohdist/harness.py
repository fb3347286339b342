"""Experiment runner.

Regenerates the theory curves for the two pure families and the Werner
family, optionally pushing Bob's conditional states through the full sampled
pipeline (measure -> collapse -> simulate counts -> reconstruct -> score),
and scores the bundled experimental reference tables against regenerated
theory.  Pure-family rows report the collaboration value C_d^{A|B}; Werner
rows report the single-copy post-assistance value C_d(rho_1^B) together with
the quantum-incoherent upper bound, since whether that bound is attainable
for mixed states is unresolved and the harness must not claim it is.

One runner serves every kind through the KINDS table: it validates a stack
of grid states once and scores it in Pauli coordinates in one numpy pass
(protocol._outcomes); sampled mode tomographs the same Bloch vectors.
"""

import json
import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, protocol, qcore, states
from .fixtures import load_fixture
from .tomography import ESTIMATOR_ID, PRNG_ID, derive_stream, reconstruct_mle, simulate_counts

GRID_SNAP = 1e-9
GRID_MAX_POINTS = 1_000_000
RUN_CHUNK = 4096  # grid points per numpy pass, so a long grid's temporaries stay small

PURE_CSV_HEADER = "theta_deg,cd_before_theory,cd_before_sim,cd_after_theory,cd_after_sim,delta_sim"
WERNER_CSV_HEADER = "p,cd_before_theory,cd_after_theory,cd_after_sim,bound_qi,delta_sim"
DEVIATION_CSV_HEADER = (
    "param,fixture_before,theory_before,dev_before,fixture_after,theory_after,dev_after,"
    "fixture_delta,theory_delta,dev_delta"
)


@dataclass(frozen=True)
class ExperimentRow:
    param: float
    cd_before_theory: float
    cd_before_sim: float
    cd_after_theory: float
    cd_after_sim: float
    delta_sim: float
    bound_qi: float | None = None


class Kind(NamedTuple):
    factory: Callable[[float], np.ndarray]  # grid parameter -> a pure parent's ket, or a 4x4 density matrix
    basis: Callable[[np.ndarray], np.ndarray]  # stack of factory outputs -> Alice's Bloch vectors
    bound: bool  # rows carry the quantum-incoherent bound
    header: str
    columns: tuple[str, ...]  # ExperimentRow fields in CSV order


_PURE_COLUMNS = ("param", "cd_before_theory", "cd_before_sim", "cd_after_theory", "cd_after_sim", "delta_sim")
_WERNER_COLUMNS = ("param", "cd_before_theory", "cd_after_theory", "cd_after_sim", "bound_qi", "delta_sim")
KINDS = {
    "family1": Kind(states.family1, protocol.optimal_blochs_pure, False, PURE_CSV_HEADER, _PURE_COLUMNS),
    "family2": Kind(states.family2, protocol.optimal_blochs_pure, False, PURE_CSV_HEADER, _PURE_COLUMNS),
    # Alice measures |y+->, |y--> at every p (the Werner value is phase independent)
    "werner": Kind(
        states.make_werner, lambda m: np.tile([0.0, 1.0, 0.0], (len(m), 1)), True, WERNER_CSV_HEADER, _WERNER_COLUMNS
    ),
}
_COLUMNS_BY_HEADER = {kind.header: kind.columns for kind in KINDS.values()}


@dataclass(frozen=True)
class RunConfig:
    kind: str  # a key of KINDS: "family1" | "family2" | "werner"
    params: tuple[float, ...]
    mode: str = "analytic"
    shots_per_basis: int = 100_000
    seed: int = 42
    epsilon_prep: float = 0.0
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.mode not in ("analytic", "sampled"):
            raise ValueError(f"mode must be 'analytic' or 'sampled', got {self.mode!r}")
        if not self.params:
            raise ValueError("parameter grid is empty")
        if self.mode == "sampled" and self.shots_per_basis < 1:
            raise ValueError(f"shots_per_basis must be >= 1 in sampled mode, got {self.shots_per_basis}")
        if not 0.0 <= self.epsilon_prep <= 1.0:
            raise ValueError(f"epsilon_prep must be in [0, 1], got {self.epsilon_prep}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        object.__setattr__(self, "params", tuple(sorted(float(p) for p in self.params)))


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse "start:stop:step" into an inclusive grid of at most GRID_MAX_POINTS, with 1e-9 endpoint snap."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'start:stop:step', got {text!r}")
    start, stop, step = (float(x) for x in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"grid start, stop and step must be finite, got {text!r}")
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} is below start {start}")
    # checked before the int() conversion: (stop - start) / step can overflow to inf
    intervals = (stop - start) / step + GRID_SNAP
    if not intervals < GRID_MAX_POINTS:
        raise ValueError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
    count = int(math.floor(intervals)) + 1
    values = [start + i * step for i in range(count)]
    if abs(values[-1] - stop) <= GRID_SNAP:
        values[-1] = stop
    return tuple(values)


def _tomographed_cr(bloch, config: RunConfig, *stream: int) -> float:
    """C_r of the MLE estimate of the qubit (I + bloch . sigma) / 2 from counts on derive_stream(seed, *stream)."""
    record = simulate_counts(qcore.bloch_state(bloch), config.shots_per_basis, derive_stream(config.seed, *stream))
    state = reconstruct_mle(record).state
    r = (2.0 * state[1, 0].real, 2.0 * state[1, 0].imag, (state[0, 0] - state[1, 1]).real)
    return protocol._qubit_entropy_at(r[2]) - protocol._qubit_entropy_at(math.hypot(*r))


def run_experiment(config: RunConfig) -> list[ExperimentRow]:
    """Theory and (optionally) sampled rows for every grid point of config.kind, RUN_CHUNK points per numpy pass.

    An invalid state raises InvalidStateError naming the first bad parameter.
    Sampled mode tomographs Bob's marginal on stream (seed, g, 0) and each
    outcome with p >= ZERO_PROB_TOL on (seed, g, 1) for "+" and (seed, g, 2) for "-".
    """
    return [row for start in range(0, len(config.params), RUN_CHUNK) for row in _run_points(config, start)]


def _run_points(config: RunConfig, start: int) -> list[ExperimentRow]:
    kind, eps, params = KINDS[config.kind], config.epsilon_prep, config.params[start : start + RUN_CHUNK]
    made = np.stack([kind.factory(x) for x in params])
    rho = made[:, :, None] * made[:, None, :].conj() if made.ndim == 2 else made
    rho = (1.0 - eps) * rho + eps * np.eye(4, dtype=complex) / 4.0
    herm, trace, spectra, ok = qcore.density_defects(rho)
    if not ok.all():
        i = int(np.argmin(ok))
        report = qcore.ValidationReport(float(herm[i]), float(trace[i]), float(spectra[i, 0]), False)
        raise qcore.InvalidStateError(f"invalid density matrix at parameter {params[i]}: {report}")
    a, b, t = protocol._pauli_coordinates(rho)
    outcomes = [(p[:, 0], r[:, 0]) for p, r in protocol._outcomes(kind.basis(made)[:, None, :], a, b, t)]
    before = protocol._qubit_coherence(b).tolist()
    after = sum(p * protocol._qubit_coherence(r) for p, r in outcomes).tolist()
    bounds = [None] * len(params)
    if kind.bound:
        bounds = (qcore.entropy_bits(np.linalg.eigvalsh(rho * qcore.BOB_DIAGONAL)) - qcore.entropy_bits(spectra)).tolist()
    rows = []
    for i, param in enumerate(params):
        before_sim, after_sim, g = before[i], after[i], start + i
        if config.mode == "sampled":  # p is 0 for the outcomes _outcomes drops
            before_sim = _tomographed_cr(b[i], config, g, 0)
            after_sim = sum(
                float(p[i]) * _tomographed_cr(r[i], config, g, s) for s, (p, r) in enumerate(outcomes, 1) if p[i] > 0.0
            )
        rows.append(ExperimentRow(param, before[i], before_sim, after[i], after_sim, after_sim - before_sim, bounds[i]))
    return rows


def run_pure_experiment(config: RunConfig) -> list[ExperimentRow]:
    """run_experiment for one of the pure families; any other kind is a ValueError."""
    if config.kind not in ("family1", "family2"):
        raise ValueError(f"run_pure_experiment needs family1 or family2, got {config.kind!r}")
    return run_experiment(config)


def run_werner_experiment(config: RunConfig) -> list[ExperimentRow]:
    """run_experiment for the Werner family; any other kind is a ValueError."""
    if config.kind != "werner":
        raise ValueError(f"run_werner_experiment needs kind 'werner', got {config.kind!r}")
    return run_experiment(config)


# ---------------------------------------------------------------------------
# serialization

_CELL = "{:.6g}"  # every CSV cell, to 6 significant digits
_fmt = _CELL.format


def emit_csv(rows: list[ExperimentRow], kind: str) -> str:
    """CSV in the layout of KINDS[kind]: its header, then its columns of every row."""
    spec = KINDS[kind]
    cells, line = operator.attrgetter(*spec.columns), ",".join([_CELL] * len(spec.columns))
    return "\n".join([spec.header] + [line.format(*cells(r)) for r in rows]) + "\n"


def emit_json(config: RunConfig, rows: list[ExperimentRow]) -> str:
    payload = {
        "config": asdict(config),
        "rows": [asdict(r) for r in rows],
        "meta": {"prng": PRNG_ID, "estimator": ESTIMATOR_ID, "version": __version__},
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_rows_csv(text: str) -> list[ExperimentRow]:
    """Rows of a CSV written by emit_csv; a layout without cd_before_sim gets cd_after_sim - delta_sim."""
    header, *body = [ln for ln in text.strip().splitlines() if ln]
    if header not in _COLUMNS_BY_HEADER:
        raise ValueError(f"unrecognized CSV header: {header!r}")
    rows = []
    for ln in body:
        values = dict(zip(_COLUMNS_BY_HEADER[header], map(float, ln.split(",")), strict=True))
        values.setdefault("cd_before_sim", values["cd_after_sim"] - values["delta_sim"])
        rows.append(ExperimentRow(**values))
    return rows


def parse_rows_json(text: str) -> tuple[dict, list[ExperimentRow]]:
    payload = json.loads(text)
    rows = [ExperimentRow(**r) for r in payload["rows"]]
    return payload["config"], rows


# ---------------------------------------------------------------------------
# fixture scoring

@dataclass(frozen=True)
class RowDeviation:
    param: float
    fixture: tuple[float, float, float]  # (cd_before, cd_after, delta)
    theory: tuple[float, float, float]
    deviation: tuple[float, float, float]


@dataclass(frozen=True)
class DeviationReport:
    table_id: int
    rows: tuple[RowDeviation, ...]
    max_deviation: float
    mean_deviation: float

    def to_csv(self) -> str:
        lines = [DEVIATION_CSV_HEADER]
        for r in self.rows:  # param, then (fixture, theory, deviation) for before, after and delta
            cells = [r.param] + [v for column in zip(r.fixture, r.theory, r.deviation) for v in column]
            lines.append(",".join(_fmt(v) for v in cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "table_id": self.table_id,
            "max_deviation": self.max_deviation,
            "mean_deviation": self.mean_deviation,
            "rows": [asdict(r) for r in self.rows],
            "meta": {"prng": PRNG_ID, "version": __version__},
        }
        return json.dumps(payload, indent=2) + "\n"


def compare_fixtures(table_id: int, rows: list[ExperimentRow]) -> DeviationReport:
    """Score a reference table against regenerated theory rows.

    For every fixture row, the absolute deviation of each coherence column
    (before, after, delta) from the matching theory value; theory delta is
    clamped at zero while negative experimental deltas are reported as-is.
    """
    fixture = load_fixture(table_id)
    by_param = {}
    for row in rows:
        by_param[round(row.param / GRID_SNAP)] = row
    missing = [f.param for f in fixture.rows if round(f.param / GRID_SNAP) not in by_param]
    if missing:
        raise ValueError(f"rows do not cover the fixture grid of table {table_id}; missing params: {missing}")
    entries = []
    for f in fixture.rows:
        row = by_param[round(f.param / GRID_SNAP)]
        theory_delta = max(row.cd_after_theory - row.cd_before_theory, 0.0)
        theory = (row.cd_before_theory, row.cd_after_theory, theory_delta)
        fixture_vals = (f.cd_before, f.cd_after, f.delta)
        deviation = tuple(abs(a - b) for a, b in zip(fixture_vals, theory))
        entries.append(RowDeviation(param=f.param, fixture=fixture_vals, theory=theory, deviation=deviation))
    all_devs = [d for e in entries for d in e.deviation]
    return DeviationReport(
        table_id=table_id,
        rows=tuple(entries),
        max_deviation=max(all_devs),
        mean_deviation=sum(all_devs) / len(all_devs),
    )


def fixture_run_config(table_id: int, **overrides) -> RunConfig:
    """Analytic RunConfig matching a fixture table's family and grid."""
    kind = {1: "family1", 2: "family2", 3: "werner"}[table_id]
    params = load_fixture(table_id).params
    return RunConfig(kind=kind, params=params, **overrides)
