"""Acceptance suite: one test per exit criterion.

Each test prints a `[criterion N] PASS/FAIL` line (visible with `pytest -s`,
and on failure in any mode) and then asserts, so the suite doubles as a
scorecard.  Criterion 4 is scored per bundled table.
"""

import math

import numpy as np
from click.testing import CliRunner

from cohdist import cli, qcore
from cohdist.coherence import coa_closed_form, coa_numeric, qi_relative_entropy, rel_entropy_coherence
from cohdist.harness import RunConfig, run_experiment
from cohdist.fixtures import load_fixture
from cohdist.protocol import MeasurementBasis, alice_measure, average_assisted_coherence, optimize_basis
from cohdist.qcore import fidelity, negativity, partial_trace, projector
from cohdist.states import make_werner
from cohdist.tomography import derive_stream, reconstruct_mle, simulate_counts

import oracles
from sampling import random_bloch, random_density, random_pure_state

THETA_GRID = tuple(2.5 * k for k in range(19))
WERNER_FIXTURE_PS = load_fixture(3).params


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_family1_closed_form_curve():
    rows = run_experiment(RunConfig(kind="family1", params=THETA_GRID))
    worst = max(abs(r.cd_after_theory - oracles.family1_after(r.param)) for r in rows)
    bell = next(r for r in rows if r.param == 22.5)
    ok = worst <= 1e-9 and abs(bell.cd_after_theory - 1.0) <= 1e-9
    _report("1", ok, f"family-1 curve max error {worst:.3e}; value at 22.5 deg = {bell.cd_after_theory:.12f}")


def test_criterion_2_family2_consistency():
    rows = run_experiment(RunConfig(kind="family2", params=THETA_GRID))
    worst_before = max(abs(r.cd_before_theory - oracles.family2_before(r.param)) for r in rows)
    worst_after = max(abs(r.cd_after_theory - 1.0) for r in rows)
    ok = worst_before <= 1e-9 and worst_after <= 1e-9
    _report("2", ok, f"family-2 marginal max error {worst_before:.3e}; |after - 1| max {worst_after:.3e}")


def test_criterion_3_werner_closed_forms():
    params = tuple(sorted(set(WERNER_FIXTURE_PS) | {1.0}))
    rows = run_experiment(RunConfig(kind="werner", params=params))
    by_p = {r.param: r for r in rows}
    worst_after = max(abs(by_p[p].cd_after_theory - oracles.werner_after(p)) for p in WERNER_FIXTURE_PS)
    worst_bound = max(abs(by_p[p].bound_qi - oracles.werner_qi_bound(p)) for p in WERNER_FIXTURE_PS)
    chain = all(r.cd_after_theory <= r.bound_qi + 1e-12 for r in rows)
    at_one = abs(by_p[1.0].cd_after_theory - 1.0) <= 1e-9 and abs(by_p[1.0].bound_qi - 1.0) <= 1e-9
    ok = worst_after <= 1e-9 and worst_bound <= 1e-9 and chain and at_one
    _report(
        "3",
        ok,
        f"after max err {worst_after:.3e}, bound max err {worst_bound:.3e}, "
        f"after<=bound {chain}, p=1 values ({by_p[1.0].cd_after_theory:.9f}, {by_p[1.0].bound_qi:.9f})",
    )


def test_criterion_4_fixture_table_1():
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "1", "--tolerance", "0.10"])
    _report("4 (table 1)", result.exit_code == 0, f"fixtures --table 1 --tolerance 0.10: {result.stderr.strip()}")


def test_criterion_4_fixture_table_2():
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "2", "--tolerance", "0.10"])
    _report("4 (table 2)", result.exit_code == 0, f"fixtures --table 2 --tolerance 0.10: {result.stderr.strip()}")


def test_criterion_4_fixture_table_3():
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "3", "--tolerance", "0.10"])
    _report("4 (table 3)", result.exit_code == 0, f"fixtures --table 3 --tolerance 0.10: {result.stderr.strip()}")


def test_criterion_5_entanglement_threshold():
    below = max(negativity(make_werner(p)) for p in np.linspace(0.0, 1.0 / 3.0, 40))
    above_ok = all(negativity(make_werner(p)) > 0.0 for p in (1.0 / 3.0 + 1e-6, 0.4, 0.7, 1.0))
    ps = (1e-3,) + tuple(np.linspace(0.01, 1.0, 25))
    rows = run_experiment(RunConfig(kind="werner", params=ps))
    coherent_ok = all(r.cd_after_theory > 0.0 for r in rows)
    ok = below <= 1e-9 and above_ok and coherent_ok
    _report(
        "5",
        ok,
        f"negativity <= {below:.2e} for p<=1/3, positive above threshold {above_ok}, "
        f"assisted coherence positive down to p=1e-3 {coherent_ok}",
    )


def test_criterion_6_optimizer_correctness():
    rng = np.random.default_rng(20240811)
    worst_coa = 0.0
    for _ in range(50):
        psi = random_pure_state(rng, 4)
        res = coa_numeric(psi, grid_res=16, refine_iters=24)
        closed = coa_closed_form(partial_trace(projector(psi), "B"))
        worst_coa = max(worst_coa, abs(res.value - closed))
    grid_res = 32
    grid_tol = (math.pi / 2.0) / (grid_res - 1)
    worst_val, worst_nz = 0.0, 0.0
    for p in (0.3, 0.6, 0.9):
        basis, value = optimize_basis(make_werner(p), grid_res=grid_res, refine_iters=25)
        worst_val = max(worst_val, abs(value - oracles.werner_after(p)))
        worst_nz = max(worst_nz, abs(basis.bloch[2]))
    ok = worst_coa <= 1e-4 and worst_val <= 1e-6 and worst_nz <= grid_tol
    _report(
        "6",
        ok,
        f"COA |numeric-closed| max {worst_coa:.3e} over 50 states; "
        f"Werner optimum max err {worst_val:.3e}, argmax |n_z| max {worst_nz:.3e} (tol {grid_tol:.3e})",
    )


def test_criterion_7_bound_inequality():
    rng = np.random.default_rng(1701)
    bases = [MeasurementBasis(random_bloch(rng)) for _ in range(200)]
    worst_excess = -np.inf
    for p in np.linspace(0.05, 0.95, 10):
        rho = make_werner(p)
        bound = qi_relative_entropy(rho)
        for basis in bases:
            avg = average_assisted_coherence(alice_measure(rho, basis))
            worst_excess = max(worst_excess, avg - bound)
    ok = worst_excess <= 1e-9
    _report("7", ok, f"max (average - bound) = {worst_excess:.3e} over 200 bases x 10 Werner states")


def test_criterion_8_mixing_monotonicity():
    rng = np.random.default_rng(88)
    worst = np.inf
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(m))
        parts = [random_density(rng, 2) for _ in range(m)]
        avg = sum(w * rel_entropy_coherence(r).c_r for w, r in zip(weights, parts))
        mixed = rel_entropy_coherence(sum(w * r for w, r in zip(weights, parts))).c_r
        worst = min(worst, avg - mixed)
    ok = worst >= -1e-12
    _report("8", ok, f"min (ensemble average - mixture) = {worst:.3e} over 1000 ensembles")


def test_criterion_9_sampled_pipeline():
    cfg = RunConfig(kind="family1", params=(22.5,), mode="sampled", shots_per_basis=10**6, seed=42)
    row = run_experiment(cfg)[0]
    pipeline_ok = abs(row.cd_after_sim - 1.0) < 0.01
    rng = np.random.default_rng(424242)
    worst_fid = 1.0
    for k in range(20):
        rho = random_density(rng, 2)
        rec = simulate_counts(rho, 10**6, seed=derive_stream(99, k))
        worst_fid = min(worst_fid, fidelity(reconstruct_mle(rec).state, rho))
    repeat_ok = run_experiment(cfg)[0] == row
    ok = pipeline_ok and worst_fid >= 0.999 and repeat_ok
    _report(
        "9",
        ok,
        f"|cd_after_sim - 1| = {abs(row.cd_after_sim - 1.0):.3e} at 1e6 shots; "
        f"min MLE fidelity {worst_fid:.6f} over 20 states; reruns bit-identical {repeat_ok}",
    )


def test_criterion_10_no_signaling():
    rng = np.random.default_rng(1010)
    worst_prob = 0.0
    worst_entry = 0.0
    for _ in range(500):
        rho = random_density(rng, 4)
        outcomes = alice_measure(rho, MeasurementBasis(random_bloch(rng)))
        worst_prob = max(worst_prob, abs(sum(outcomes.probs) - 1.0))
        avg = sum(o.prob * o.bob_state for o in outcomes)
        worst_entry = max(worst_entry, float(np.max(np.abs(avg - partial_trace(rho, "B")))))
    ok = worst_prob <= 1e-10 and worst_entry <= 1e-10
    _report("10", ok, f"prob normalization defect {worst_prob:.3e}, no-signaling defect {worst_entry:.3e}")
