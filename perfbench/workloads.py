"""The four benchmark workloads: seeded inputs, tasks and output checks.

A task is one call of a public cohdist entry point.  Tasks come in rounds,
one instance of each task type the workload mixes, so every measured run
holds the workload's mix in its stated proportions.  Round r's inputs are a
function of (workload seed, r) only.  `round_s` is a round's wall time on a
2-core x86 VM at the commit that added the benchmark; the traced run uses it
to pick a round count that fits its time.

Each task's `run` returns its output; `check` raises CheckFailed when the
output is wrong.  Checks run outside the timed task calls.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cohdist import coherence, harness, protocol, qcore, states


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


# ---------------------------------------------------------------------------
# closed forms, from elementary formulas only

def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def family1_after(theta_deg: float) -> float:
    """H2(cos^2 2t); Bob's family-1 marginal is diagonal, so 'before' is 0."""
    return h2(math.cos(math.radians(2.0 * theta_deg)) ** 2)


def family2_before(theta_deg: float) -> float:
    """Bob's family-2 marginal has eigenvalues (1 +- cos 4t)/2 and a flat diagonal."""
    return 1.0 - h2((1.0 + math.cos(math.radians(4.0 * theta_deg))) / 2.0)


def werner_after(p: float) -> float:
    """Bob's conditional states after a y measurement have |r| = p and r_z = 0."""
    return 1.0 - h2((1.0 + p) / 2.0)


def werner_bound(p: float) -> float:
    """S(dephase_B rho) - S(rho) from the two explicit spectra."""
    lam = ((1.0 + 3.0 * p) / 4.0,) + ((1.0 - p) / 4.0,) * 3
    s_rho = -sum(x * math.log2(x) for x in lam if x > 0.0)
    return 1.0 + h2((1.0 + p) / 2.0) - s_rho


CLOSED_FORMS = {
    # kind -> param -> (cd_before, cd_after, bound_qi)
    "family1": lambda t: (0.0, family1_after(t), None),
    "family2": lambda t: (family2_before(t), 1.0, None),
    "werner": lambda p: (0.0, werner_after(p), werner_bound(p)),
}
CLOSED_FORM_TOL = 1e-9

# Sampled columns may sit this many shot-noise units, 1/sqrt(shots), from
# theory.  The worst seen over 3 seeds of every sampled curve kind was 8.5
# units (pure family 2 at 1e6 shots, where the MLE sits on the boundary).
SHOT_NOISE_UNITS = 20.0

# Documented worst deviations of the bundled reference tables from theory.
# Tables 1 and 2 are the known red at the 0.10 gate; their figures are
# checked as documented, not against the gate.
FIXTURE_MAX_DEVIATION = {1: 0.157, 2: 0.140, 3: 0.071}
FIXTURE_DOC_TOL = 5e-4
FIXTURE_GATE = 0.10
# Mean deviations as scored when the benchmark was added; theory is exact,
# so they may move only by rounding.
FIXTURE_MEAN_DEVIATION = {1: 0.045900526067955735, 2: 0.06573526761755531, 3: 0.015604855610340522}
FIXTURE_MEAN_TOL = 1e-9

CSV_COLUMNS = {
    "family1": ("param", "cd_before_theory", "cd_before_sim", "cd_after_theory", "cd_after_sim", "delta_sim"),
    "family2": ("param", "cd_before_theory", "cd_before_sim", "cd_after_theory", "cd_after_sim", "delta_sim"),
    "werner": ("param", "cd_before_theory", "cd_after_theory", "cd_after_sim", "bound_qi", "delta_sim"),
}


def _check_csv(csv: str, rows, kind: str) -> None:
    """The CSV has one line per row and carries every row to 6 significant digits."""
    parsed = harness.parse_rows_csv(csv)
    _require(len(parsed) == len(rows), f"CSV has {len(parsed)} rows, expected {len(rows)}")
    for got, want in zip(parsed, rows):
        for col in CSV_COLUMNS[kind]:
            a, b = getattr(got, col), getattr(want, col)
            _require(math.isclose(a, b, rel_tol=1e-5, abs_tol=1e-12), f"CSV {col} {a!r} != {b!r}")


# ---------------------------------------------------------------------------
# tasks

def sampled_task(kind: str, params, shots: int, seed: int, epsilon: float, reference) -> Task:
    """One sampled run_experiment call followed by emit_csv.

    reference: the analytic rows of the same kind, grid and epsilon.
    """
    config = harness.RunConfig(
        kind=kind, params=params, mode="sampled", shots_per_basis=shots, seed=seed, epsilon_prep=epsilon
    )
    tol = SHOT_NOISE_UNITS / math.sqrt(shots)

    def run():
        rows = harness.run_experiment(config)
        return rows, harness.emit_csv(rows, kind)

    def check(out):
        rows, csv = out
        _require(len(rows) == len(reference), f"{len(rows)} rows, expected {len(reference)}")
        for row, ref in zip(rows, reference):
            theory = (row.param, row.cd_before_theory, row.cd_after_theory, row.bound_qi)
            _require(
                theory == (ref.param, ref.cd_before_theory, ref.cd_after_theory, ref.bound_qi),
                f"theory columns at {row.param} differ from the analytic run",
            )
            for sim, th in ((row.cd_before_sim, row.cd_before_theory), (row.cd_after_sim, row.cd_after_theory)):
                _require(abs(sim - th) <= tol, f"sampled {sim} is {abs(sim - th):.3g} from theory {th} at {row.param}")
            _require(row.delta_sim == row.cd_after_sim - row.cd_before_sim, f"delta_sim inconsistent at {row.param}")
        _check_csv(csv, rows, kind)

    return Task(f"{kind} eps={epsilon:g} shots={shots:.0e}", run, check)


def analytic_task(kind: str, params) -> Task:
    """One analytic run_experiment call and an emit -> parse -> emit round trip."""
    config = harness.RunConfig(kind=kind, params=params)

    def run():
        rows = harness.run_experiment(config)
        csv = harness.emit_csv(rows, kind)
        return rows, csv, harness.emit_csv(harness.parse_rows_csv(csv), kind)

    def check(out):
        rows, csv, again = out
        _require(len(rows) == len(params), f"{len(rows)} rows, expected {len(params)}")
        for row in rows:
            before, after, bound = CLOSED_FORMS[kind](row.param)
            _require(abs(row.cd_before_theory - before) <= CLOSED_FORM_TOL, f"cd_before at {row.param}")
            _require(abs(row.cd_after_theory - after) <= CLOSED_FORM_TOL, f"cd_after at {row.param}")
            if bound is not None:
                _require(abs(row.bound_qi - bound) <= CLOSED_FORM_TOL, f"bound_qi at {row.param}")
                _require(row.cd_after_theory <= row.bound_qi + 1e-12, f"after > bound at {row.param}")
            _require(
                (row.cd_before_sim, row.cd_after_sim) == (row.cd_before_theory, row.cd_after_theory),
                f"analytic sim columns differ from theory at {row.param}",
            )
        _check_csv(csv, rows, kind)
        _require(again == csv, "emit -> parse -> emit changed the CSV bytes")

    return Task(f"analytic {kind} {len(params)} points", run, check)


def fixtures_task(configs) -> Task:
    """compare_fixtures on tables 1-3, each against its regenerated theory rows."""

    def run():
        reports = (harness.compare_fixtures(t, harness.run_experiment(cfg)) for t, cfg in configs.items())
        return tuple((r.table_id, r.max_deviation, r.mean_deviation) for r in reports)

    def check(out):
        _require([t for t, _, _ in out] == [1, 2, 3], f"scored tables {[t for t, _, _ in out]}")
        for t, worst, mean in out:
            _require(abs(worst - FIXTURE_MAX_DEVIATION[t]) <= FIXTURE_DOC_TOL, f"table {t} max deviation {worst}")
            _require(abs(mean - FIXTURE_MEAN_DEVIATION[t]) <= FIXTURE_MEAN_TOL, f"table {t} mean deviation {mean}")
        _require(out[2][1] <= FIXTURE_GATE, f"table 3 max deviation {out[2][1]} over the {FIXTURE_GATE} gate")

    return Task("compare_fixtures tables 1-3", run, check)


def _search_check(rho_ab, closed_form: float | None, tol: float):
    def check(out):
        value, bloch = out
        _require(math.isfinite(value) and value >= -1e-12, f"search value {value}")
        _require(abs(float(np.linalg.norm(bloch)) - 1.0) <= 1e-9, f"basis {bloch} is not a unit vector")
        bound = coherence.qi_relative_entropy(rho_ab)
        _require(value <= bound + 1e-9, f"search value {value} above the qi bound {bound}")
        if closed_form is not None:
            _require(abs(value - closed_form) <= tol, f"search value {value} vs closed form {closed_form}")

    return check


def optimize_task(label: str, rho_ab, closed_form: float | None = None) -> Task:
    def run():
        basis, value = protocol.optimize_basis(rho_ab)
        return value, basis.bloch

    return Task(f"optimize_basis {label}", run, _search_check(rho_ab, closed_form, 1e-6))


def coa_task(psi) -> Task:
    rho_ab = qcore.projector(psi)

    def run():
        res = coherence.coa_numeric(psi)
        return res.value, res.argmax_basis.bloch

    def check(out):
        closed = coherence.coa_closed_form(qcore.partial_trace(rho_ab, "B"))
        _search_check(rho_ab, closed, 1e-4)(out)

    return Task("coa_numeric random pure", run, check)


def random_pure(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_mixed(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / rho.trace().real


# ---------------------------------------------------------------------------
# workloads

def _analytic_reference(kind: str, params, epsilon: float = 0.0):
    return harness.run_experiment(harness.RunConfig(kind=kind, params=params, epsilon_prep=epsilon))


class SampledPure:
    """19-point family1 / family2 curves on 0:45:2.5, sampled at 1e5 shots."""

    round_s = 3.6
    shots = 10**5

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = harness.parse_grid("0:45:2.5")
        self.reference = {k: _analytic_reference(k, self.grid) for k in ("family1", "family2")}

    def round(self, r: int) -> list[Task]:
        seeds = _rng(self.seed, r).integers(0, 2**62, size=2).tolist()
        return [
            sampled_task(kind, self.grid, self.shots, s, 0.0, self.reference[kind])
            for kind, s in zip(("family1", "family2"), seeds)
        ]


class SampledMixed:
    """Werner curves, and pure-family curves at epsilon_prep=0.05, at 1e4 and 1e6 shots."""

    round_s = 1.5
    mix = (("werner", 0.0), ("family1", 0.05), ("family2", 0.05))
    shots = (10**4, 10**6)

    def __init__(self, seed: int):
        self.seed = seed
        self.grids = {"werner": harness.parse_grid("0.05:0.95:0.05"), "family1": harness.parse_grid("0:45:2.5")}
        self.grids["family2"] = self.grids["family1"]
        self.reference = {k: _analytic_reference(k, self.grids[k], eps) for k, eps in self.mix}

    def round(self, r: int) -> list[Task]:
        # six tasks: the three kinds in turn, shots alternating, so each
        # (kind, shots) pair runs once per round
        seeds = _rng(self.seed, r).integers(0, 2**62, size=6).tolist()
        tasks = []
        for i, s in enumerate(seeds):
            kind, eps = self.mix[i % 3]
            tasks.append(sampled_task(kind, self.grids[kind], self.shots[i % 2], s, eps, self.reference[kind]))
        return tasks


class BasisSearch:
    """Default-size basis searches: random mixed, Werner, and random pure (coa_numeric)."""

    round_s = 4.0

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Task]:
        rng = _rng(self.seed, r)
        p = float(rng.uniform(0.05, 0.95))
        return [
            optimize_task("random mixed", random_mixed(rng)),
            optimize_task("werner", states.make_werner(p), werner_after(p)),
            coa_task(random_pure(rng)),
        ]


class AnalyticDense:
    """181-point analytic curves of each kind with a CSV round trip; fixtures every fourth task."""

    round_s = 0.4
    points = 181

    def __init__(self, seed: int):
        self.seed = seed
        self.fixture_configs = {t: harness.fixture_run_config(t) for t in (1, 2, 3)}

    def round(self, r: int) -> list[Task]:
        rng = _rng(self.seed, r)
        thetas = {k: tuple(np.sort(rng.uniform(0.0, 45.0, self.points)).tolist()) for k in ("family1", "family2")}
        ps = tuple(np.sort(rng.uniform(0.02, 0.98, self.points)).tolist())
        return [
            analytic_task("family1", thetas["family1"]),
            analytic_task("family2", thetas["family2"]),
            analytic_task("werner", ps),
            fixtures_task(self.fixture_configs),
        ]


WORKLOADS = {
    "sampled-pure": SampledPure,
    "sampled-mixed": SampledMixed,
    "basis-search": BasisSearch,
    "analytic-dense": AnalyticDense,
}
