"""Experiment runner.

Regenerates the theory curves for the two pure families and the Werner
family, optionally pushing Bob's conditional states through the full sampled
pipeline (measure -> collapse -> simulate counts -> reconstruct -> score),
and scores the bundled experimental reference tables against regenerated
theory.  Pure-family rows report the collaboration value C_d^{A|B}; Werner
rows report the single-copy post-assistance value C_d(rho_1^B) together with
the quantum-incoherent upper bound, since whether that bound is attainable
for mixed states is unresolved and the harness must not claim it is.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, qcore, states
from .coherence import qi_relative_entropy, rel_entropy_coherence
from .fixtures import load_fixture
from .protocol import OutcomeSet, alice_measure, average_assisted_coherence, optimal_basis_pure, y_basis
from .tomography import ESTIMATOR_ID, PRNG_ID, derive_stream, reconstruct_mle, simulate_counts

GRID_SNAP = 1e-9
GRID_MAX_POINTS = 1_000_000

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


@dataclass(frozen=True)
class RunConfig:
    kind: str  # "family1" | "family2" | "werner"
    params: tuple[float, ...]
    mode: str = "analytic"
    shots_per_basis: int = 100_000
    seed: int = 42
    epsilon_prep: float = 0.0
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self):
        if self.kind not in ("family1", "family2", "werner"):
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


def _tomographed_cr(state: np.ndarray, shots: int, seed: int) -> float:
    record = simulate_counts(state, shots, seed)
    return rel_entropy_coherence(reconstruct_mle(record).state).c_r


def _sampled_after(outcomes: OutcomeSet, shots: int, base_seed: int, grid_index: int) -> float:
    total = 0.0
    for t, outcome in enumerate(outcomes, start=1):
        if outcome.prob <= 0.0:
            continue
        seed = derive_stream(base_seed, grid_index, t)
        total += outcome.prob * _tomographed_cr(outcome.bob_state, shots, seed)
    return total


def run_pure_experiment(config: RunConfig) -> list[ExperimentRow]:
    """Theory and (optionally) sampled rows for one of the pure families."""
    if config.kind not in ("family1", "family2"):
        raise ValueError(f"run_pure_experiment needs family1 or family2, got {config.kind!r}")
    family = 1 if config.kind == "family1" else 2
    rows = []
    for g, theta in enumerate(config.params):
        psi = states.make_pure(family, theta)
        rho_ab = states.depolarize(qcore.projector(psi), config.epsilon_prep)
        rho_b = qcore.partial_trace(rho_ab, "B")
        cd_before = rel_entropy_coherence(rho_b).c_r
        basis = optimal_basis_pure(psi)
        outcomes = alice_measure(rho_ab, basis)
        cd_after = average_assisted_coherence(outcomes)
        if config.mode == "analytic":
            before_sim, after_sim = cd_before, cd_after
        else:
            before_sim = _tomographed_cr(rho_b, config.shots_per_basis, derive_stream(config.seed, g, 0))
            after_sim = _sampled_after(outcomes, config.shots_per_basis, config.seed, g)
        rows.append(
            ExperimentRow(
                param=theta,
                cd_before_theory=cd_before,
                cd_before_sim=before_sim,
                cd_after_theory=cd_after,
                cd_after_sim=after_sim,
                delta_sim=after_sim - before_sim,
            )
        )
    return rows


def run_werner_experiment(config: RunConfig) -> list[ExperimentRow]:
    """Theory and (optionally) sampled rows for the Werner family.

    Alice always measures the equatorial |y+->, |y--> basis (the value is
    phase independent for this family); each row carries the quantum-
    incoherent upper bound next to the achieved single-copy value.
    """
    if config.kind != "werner":
        raise ValueError(f"run_werner_experiment needs kind 'werner', got {config.kind!r}")
    basis = y_basis()
    rows = []
    for g, p in enumerate(config.params):
        rho_ab = states.depolarize(states.make_werner(p), config.epsilon_prep)
        rho_b = qcore.partial_trace(rho_ab, "B")
        cd_before = rel_entropy_coherence(rho_b).c_r
        outcomes = alice_measure(rho_ab, basis)
        cd_after = average_assisted_coherence(outcomes)
        bound = qi_relative_entropy(rho_ab)
        if config.mode == "analytic":
            before_sim, after_sim = cd_before, cd_after
        else:
            before_sim = _tomographed_cr(rho_b, config.shots_per_basis, derive_stream(config.seed, g, 0))
            after_sim = _sampled_after(outcomes, config.shots_per_basis, config.seed, g)
        rows.append(
            ExperimentRow(
                param=p,
                cd_before_theory=cd_before,
                cd_before_sim=before_sim,
                cd_after_theory=cd_after,
                cd_after_sim=after_sim,
                delta_sim=after_sim - before_sim,
                bound_qi=bound,
            )
        )
    return rows


def run_experiment(config: RunConfig) -> list[ExperimentRow]:
    if config.kind == "werner":
        return run_werner_experiment(config)
    return run_pure_experiment(config)


# ---------------------------------------------------------------------------
# serialization

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_csv(rows: list[ExperimentRow], kind: str) -> str:
    lines = []
    if kind == "werner":
        lines.append(WERNER_CSV_HEADER)
        for r in rows:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (r.param, r.cd_before_theory, r.cd_after_theory, r.cd_after_sim, r.bound_qi, r.delta_sim)
                )
            )
    else:
        lines.append(PURE_CSV_HEADER)
        for r in rows:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (r.param, r.cd_before_theory, r.cd_before_sim, r.cd_after_theory, r.cd_after_sim, r.delta_sim)
                )
            )
    return "\n".join(lines) + "\n"


def emit_json(config: RunConfig, rows: list[ExperimentRow]) -> str:
    payload = {
        "config": asdict(config),
        "rows": [asdict(r) for r in rows],
        "meta": {"prng": PRNG_ID, "estimator": ESTIMATOR_ID, "version": __version__},
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_rows_csv(text: str) -> list[ExperimentRow]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header, body = lines[0], lines[1:]
    rows = []
    if header == WERNER_CSV_HEADER:
        for ln in body:
            p, bt, at, asim, bq, d = (float(x) for x in ln.split(","))
            rows.append(
                ExperimentRow(
                    param=p,
                    cd_before_theory=bt,
                    cd_before_sim=asim - d,
                    cd_after_theory=at,
                    cd_after_sim=asim,
                    delta_sim=d,
                    bound_qi=bq,
                )
            )
    elif header == PURE_CSV_HEADER:
        for ln in body:
            p, bt, bs, at, asim, d = (float(x) for x in ln.split(","))
            rows.append(
                ExperimentRow(
                    param=p,
                    cd_before_theory=bt,
                    cd_before_sim=bs,
                    cd_after_theory=at,
                    cd_after_sim=asim,
                    delta_sim=d,
                )
            )
    else:
        raise ValueError(f"unrecognized CSV header: {header!r}")
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
        for r in self.rows:
            ordered = (
                r.param,
                r.fixture[0], r.theory[0], r.deviation[0],
                r.fixture[1], r.theory[1], r.deviation[1],
                r.fixture[2], r.theory[2], r.deviation[2],
            )
            lines.append(",".join(_fmt(v) for v in ordered))
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
