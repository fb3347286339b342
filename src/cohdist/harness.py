"""Experiment runner.

Regenerates the theory curves for the two pure families and the Werner
family, optionally pushing Bob's conditional states through the full sampled
pipeline (measure -> collapse -> simulate counts -> reconstruct -> score),
and scores the bundled experimental reference tables against regenerated
theory.  Pure-family rows report the collaboration value C_d^{A|B}; Werner
rows report the single-copy post-assistance value C_d(rho_1^B) together with
the quantum-incoherent upper bound, since whether that bound is attainable
for mixed states is unresolved and the harness must not claim it is.

One runner, run_chunk, serves every kind through the KINDS table: it builds a stack of grid states in one factory
call, validates it once and scores it in Pauli coordinates in one numpy pass (protocol._outcomes), Alice measuring along
y.  Bob's marginal and both outcomes are the records t = 0, 1, 2 of one (3, N) stack; sampled mode tomographs record t
of grid point g on stream derive_stream(seed, g, t), all but the outcomes with p = 0, in one tomograph call.
run_experiment's rows and tomo-demo's records are read from its arrays.
"""

import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import protocol, qcore, states
from .fixtures import load_fixture
from .tomography import ESTIMATOR_ID, PRNG_ID, derive_stream, shots_and_seed, tomograph

GRID_SNAP = 1e-9
GRID_MAX_POINTS = 1_000_000
RUN_CHUNK = 4096  # grid points per numpy pass, so a long grid's temporaries stay small
VERSION = "0.15.0"  # cohdist.__version__
META = {"prng": PRNG_ID, "estimator": ESTIMATOR_ID, "version": VERSION}  # the "meta" of every JSON output (dump_json)

PURE_CSV_HEADER = "theta_deg,cd_before_theory,cd_before_sim,cd_after_theory,cd_after_sim,delta_sim"
WERNER_CSV_HEADER = "p,cd_before_theory,cd_after_theory,cd_after_sim,bound_qi,delta_sim"
DEVIATION_CSV_HEADER = (
    "param,fixture_before,theory_before,dev_before,fixture_after,theory_after,dev_after,"
    "fixture_delta,theory_delta,dev_delta"
)


class ExperimentRow(NamedTuple):
    param: float
    cd_before_theory: float
    cd_before_sim: float
    cd_after_theory: float
    cd_after_sim: float
    delta_sim: float
    bound_qi: float | None = None


class Kind(NamedTuple):
    factory: Callable[[np.ndarray], np.ndarray]  # N grid parameters -> N pure parents' kets, or N 4x4 density matrices
    header: str
    columns: tuple[str, ...]  # ExperimentRow fields in CSV order; rows carry bound_qi exactly when it is among them


_PURE_COLUMNS = ("param", "cd_before_theory", "cd_before_sim", "cd_after_theory", "cd_after_sim", "delta_sim")
_WERNER_COLUMNS = ("param", "cd_before_theory", "cd_after_theory", "cd_after_sim", "bound_qi", "delta_sim")
KINDS = {
    "family1": Kind(states.family1, PURE_CSV_HEADER, _PURE_COLUMNS),
    "family2": Kind(states.family2, PURE_CSV_HEADER, _PURE_COLUMNS),
    "werner": Kind(states.make_werner, WERNER_CSV_HEADER, _WERNER_COLUMNS),
}
# Alice measures |y+->, |y-> for every kind: for a pure family it is the ideal parent's optimal basis
# (protocol.optimal_basis_pure) at every theta, and the Werner value does not depend on the phase
ALICE_BLOCH = np.array([0.0, 1.0, 0.0])
_COLUMNS_BY_HEADER = {kind.header: kind.columns for kind in KINDS.values()}


@dataclass(frozen=True)
class RunConfig:
    kind: str  # a key of KINDS: "family1" | "family2" | "werner"
    params: tuple[float, ...]
    mode: str = "analytic"
    shots_per_basis: int = 100_000
    seed: int = 42
    epsilon_prep: float = 0.0

    def __post_init__(self):
        try:  # read once: a generator is consumed, and an array has no truth value
            params = tuple(self.params)
        except TypeError:
            raise ValueError(f"params must be an iterable of real numbers, got {type(self.params).__name__}") from None
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.mode not in ("analytic", "sampled"):
            raise ValueError(f"mode must be 'analytic' or 'sampled', got {self.mode!r}")
        if not params:
            raise ValueError("parameter grid is empty")
        bad = sorted(t.__name__ for t in set(map(type, params)) if not qcore.is_real_type(t))
        if bad:  # one check per type, not per point; nan and inf pass here and reach the factory's range check
            raise ValueError(f"params must be real numbers, got {', '.join(bad)}")
        shots, seed = shots_and_seed(self.shots_per_basis, self.seed)
        object.__setattr__(self, "params", tuple(sorted(float(p) + 0.0 for p in params)))  # + 0.0: -0.0 is 0.0
        object.__setattr__(self, "shots_per_basis", shots)  # a numpy integer is stored as int
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "epsilon_prep", qcore.as_unit_real("epsilon_prep", self.epsilon_prep))  # 1 is stored as 1.0


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse "start:stop:step" into an inclusive grid of at most GRID_MAX_POINTS, over GRID_SNAP apart, end snapped."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'start:stop:step', got {text!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ValueError(f"grid {text!r} has a value that is not a number") from None
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
    return spaced(values, f"grid {text!r}")


def spaced(values, label: str) -> tuple[float, ...]:
    """values as a sorted tuple of floats; a ValueError naming label if one is not a number or two are GRID_SNAP or less apart."""
    try:
        values = tuple(sorted(map(float, values)))
    except ValueError:
        raise ValueError(f"{label} has a value that is not a number") from None
    if any(b - a <= GRID_SNAP for a, b in zip(values, values[1:])):  # parameters GRID_SNAP apart are one point
        raise ValueError(f"{label} has points at most {GRID_SNAP} apart")
    return values


def run_experiment(config: RunConfig) -> list[ExperimentRow]:
    """Theory and (optionally) sampled rows for every grid point of config.kind, from run_chunk's arrays; an invalid
    state raises InvalidStateError naming the first bad parameter."""
    rows = []
    for start in range(0, len(config.params), RUN_CHUNK):
        p, _, c_true, c_sim, bounds, _ = run_chunk(config, start)
        before, after = c_true[0].tolist(), sum(p * c_true[1:]).tolist()
        before_sim, after_sim = (c_sim[0].tolist(), sum(p * c_sim[1:]).tolist()) if config.mode == "sampled" else (before, after)
        delta = map(operator.sub, after_sim, before_sim)
        bounds = itertools.repeat(None) if bounds is None else bounds.tolist()
        fields = zip(config.params[start : start + RUN_CHUNK], before, before_sim, after, after_sim, delta, bounds)
        rows += map(tuple.__new__, itertools.repeat(ExperimentRow), fields)  # as parse_rows_csv: no Python call per row
    return rows


def run_chunk(config: RunConfig, start: int) -> tuple:
    """(p, blochs, c_true, c_sim, bounds, sampled) of config's grid points start + i, i < RUN_CHUNK; see the module docstring.

    p[k, i] is the probability of outcome k ("+", "-"); blochs[t, i], c_true[t, i] and c_sim[t, i] are record t's Bloch
    vector, C_r and its estimate's C_r (c_true in analytic mode; 0 where p = 0); bounds is qi_bound per point or None.
    sampled is None, or each tomographed record's (t, i, stream, "+" counts, estimate, root steps) in np.nonzero's order."""
    kind, eps, params = KINDS[config.kind], config.epsilon_prep, config.params[start : start + RUN_CHUNK]
    made = kind.factory(params)
    with np.errstate(invalid="ignore", over="ignore"):  # an inf entry makes nans, which fail the check without a numpy warning
        rho = (1.0 - eps) * (qcore.projector(made) if made.ndim == 2 else made) + eps * np.eye(4, dtype=complex) / 4.0
        if made.ndim == 2:  # psi psi^+ is exactly Hermitian and positive, so a trace within TRACE_TOL of 1 makes it a state
            spectra, ok = None, np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0) <= qcore.TRACE_TOL  # nan fails
        else:  # a matrix factory's stack, whose spectra feed qi_bound
            _, _, spectra, ok = qcore.density_defects(rho)
    if not ok.all():
        i = int(np.argmin(ok))
        report = qcore.validate_density(rho[i])
        raise qcore.InvalidStateError(f"invalid density matrix at parameter {params[i]}: {report}")
    a, b, t = protocol._pauli_coordinates(rho)
    p, r = protocol._outcomes(ALICE_BLOCH, a, b, t)
    blochs = np.concatenate([b[None], r])
    c_true = protocol._qubit_coherence(blochs)
    bounds = qcore.qi_bound(rho, spectra) if "bound_qi" in kind.columns else None
    if config.mode == "analytic":
        return p, blochs, c_true, c_true, bounds, None
    target, point = np.nonzero(np.concatenate([np.ones((1, len(params)), bool), p > 0.0]))
    streams = derive_stream(config.seed, (start + point).astype(np.uint64), target.astype(np.uint64))
    plus, est, steps = tomograph(blochs[target, point], config.shots_per_basis, streams)
    c_sim = np.zeros((3, len(params)))
    c_sim[target, point] = protocol._qubit_coherence(est)
    return p, blochs, c_true, c_sim, bounds, (target, point, streams, plus, est, steps)


# ---------------------------------------------------------------------------
# serialization

def _write_csv(header: str, records) -> str:
    """header, then a line per record (one cell per header field, each printf "%.6g": 6 significant digits).
    One % fills the line template for a block of RUN_CHUNK records: a long output holds no string per line."""
    line, records, blocks = ",".join(["%.6g"] * (header.count(",") + 1)) + "\n", iter(records), [header, "\n"]
    while block := list(itertools.islice(records, RUN_CHUNK)):
        blocks.append((line * len(block)) % tuple(itertools.chain.from_iterable(block)))
    return "".join(blocks)


def emit_csv(rows, kind: str) -> str:
    """CSV in the layout of KINDS[kind]: its header, then its columns of every row of the iterable rows."""
    spec = KINDS[kind]
    cells = operator.itemgetter(*map(ExperimentRow._fields.index, spec.columns))
    return _write_csv(spec.header, map(cells, rows))


def dump_json(**fields) -> str:
    """The JSON of every cohdist output: fields in order, then "meta"."""
    return json.dumps({**fields, "meta": META}, indent=2) + "\n"


def emit_json(config: RunConfig, rows: list[ExperimentRow]) -> str:
    return dump_json(config=vars(config), rows=[r._asdict() for r in rows])  # vars: no deep copy of params


def parse_rows_csv(text: str) -> list[ExperimentRow]:
    """Rows of a CSV written by emit_csv; a layout without cd_before_sim gets cd_after_sim - delta_sim."""
    header, *body = [ln for ln in text.strip().splitlines() if ln]
    if header not in _COLUMNS_BY_HEADER:
        raise ValueError(f"unrecognized CSV header: {header!r}")
    columns = _COLUMNS_BY_HEADER[header]
    for ln in body:
        if ln.count(",") != len(columns) - 1:
            raise ValueError(f"CSV row has {ln.count(',') + 1} cells, expected {len(columns)}: {ln!r}")
    cells = list(map(float, ",".join(body).split(","))) if body else []  # every cell in one split
    col = {name: cells[i :: len(columns)] for i, name in enumerate(columns)}
    if "cd_before_sim" not in col:
        col["cd_before_sim"] = list(map(operator.sub, col["cd_after_sim"], col["delta_sim"]))
    # tuple.__new__ is ExperimentRow._make without a Python call per row; bound_qi is None if no column holds it
    fields = zip(*(col.get(f, itertools.repeat(None)) for f in ExperimentRow._fields))
    return list(map(tuple.__new__, itertools.repeat(ExperimentRow), fields))


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
        # param, then (fixture, theory, deviation) for before, after and delta
        cells = ((r.param, *itertools.chain(*zip(r.fixture, r.theory, r.deviation))) for r in self.rows)
        return _write_csv(DEVIATION_CSV_HEADER, cells)

    def to_json(self) -> str:
        return dump_json(
            table_id=self.table_id,
            max_deviation=self.max_deviation,
            mean_deviation=self.mean_deviation,
            rows=[asdict(r) for r in self.rows],
        )


def compare_fixtures(table_id: int, rows: list[ExperimentRow]) -> DeviationReport:
    """Score a reference table against regenerated theory rows.

    For every fixture row, the absolute deviation of each coherence column
    (before, after, delta) from the matching theory value; theory delta is
    clamped at zero while negative experimental deltas are reported as-is.
    """
    fixture = load_fixture(table_id)
    by_param = {round(row.param / GRID_SNAP): row for row in rows}  # the last row of a param wins
    missing = [f.param for f in fixture.rows if round(f.param / GRID_SNAP) not in by_param]
    if missing:
        raise ValueError(f"rows do not cover the fixture grid of table {table_id}; missing params: {missing}")
    entries = []
    for f in fixture.rows:
        row = by_param[round(f.param / GRID_SNAP)]
        theory = (row.cd_before_theory, row.cd_after_theory, max(row.cd_after_theory - row.cd_before_theory, 0.0))
        measured = (f.cd_before, f.cd_after, f.delta)
        entries.append(RowDeviation(f.param, measured, theory, tuple(abs(a - b) for a, b in zip(measured, theory))))
    all_devs = [d for e in entries for d in e.deviation]
    return DeviationReport(fixture.table_id, tuple(entries), max(all_devs), sum(all_devs) / len(all_devs))


def fixture_run_config(table_id: int) -> RunConfig:
    """Analytic RunConfig matching a fixture table's family and grid."""
    params = load_fixture(table_id).params  # raises the ValueError for an unknown table_id
    return RunConfig(kind={1: "family1", 2: "family2", 3: "werner"}[table_id], params=params)
