import json

import numpy as np
import pytest
from click.testing import CliRunner

from cohdist import cli, harness
from cohdist.fixtures import load_fixture
from cohdist.harness import (
    ExperimentRow,
    RunConfig,
    compare_fixtures,
    emit_csv,
    emit_json,
    fixture_run_config,
    parse_grid,
    parse_rows_csv,
    parse_rows_json,
    run_pure_experiment,
    run_werner_experiment,
)

import oracles

THETA_GRID = tuple(2.5 * k for k in range(19))


def _analytic(kind, params):
    cfg = RunConfig(kind=kind, params=tuple(params))
    if kind == "werner":
        return cfg, run_werner_experiment(cfg)
    return cfg, run_pure_experiment(cfg)


# --- grid parsing -------------------------------------------------------------

def test_parse_grid_inclusive_endpoints():
    grid = parse_grid("0:45:2.5")
    assert len(grid) == 19
    assert grid[0] == 0.0 and grid[-1] == 45.0


def test_parse_grid_snaps_endpoint():
    grid = parse_grid("0:1:0.1")
    assert len(grid) == 11
    assert grid[-1] == 1.0


def test_parse_grid_errors():
    for bad in ("1:2", "0:1:0", "1:0:0.1", "a:b:c"):
        with pytest.raises(ValueError):
            parse_grid(bad)


def test_parse_grid_rejects_non_finite_values():
    for bad in ("0:inf:1", "-inf:0:1", "nan:1:0.1", "0:1:inf"):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(bad)
    assert CliRunner().invoke(cli.main, ["pure1", "--grid", "0:inf:1"]).exit_code == 2


def test_parse_grid_caps_point_count(monkeypatch):
    for bad in ("0:45:1e-7", "-1e308:1e308:1"):
        with pytest.raises(ValueError, match="points"):
            parse_grid(bad)
    assert CliRunner().invoke(cli.main, ["pure1", "--grid", "0:45:1e-7"]).exit_code == 2
    monkeypatch.setattr(harness, "GRID_MAX_POINTS", 10)
    assert len(parse_grid("0:9:1")) == 10
    with pytest.raises(ValueError, match="points"):
        parse_grid("0:10:1")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(kind="family3", params=(1.0,))
    with pytest.raises(ValueError):
        RunConfig(kind="werner", params=())
    with pytest.raises(ValueError):
        RunConfig(kind="werner", params=(0.5,), mode="sampled", shots_per_basis=0)
    with pytest.raises(ValueError):
        RunConfig(kind="werner", params=(0.5,), mode="exact")


# --- analytic rows --------------------------------------------------------------

def test_pure1_analytic_key_points():
    _, rows = _analytic("family1", (0.0, 22.5, 45.0))
    by_theta = {r.param: r for r in rows}
    assert by_theta[22.5].cd_before_theory == pytest.approx(0.0, abs=1e-12)
    assert by_theta[22.5].cd_after_theory == pytest.approx(1.0, abs=1e-9)
    assert by_theta[22.5].delta_sim == pytest.approx(1.0, abs=1e-9)
    assert by_theta[0.0].cd_after_theory == pytest.approx(0.0, abs=1e-12)
    assert by_theta[45.0].cd_after_theory == pytest.approx(0.0, abs=1e-9)


def test_pure1_analytic_matches_entropy_curve():
    _, rows = _analytic("family1", THETA_GRID)
    for r in rows:
        assert abs(r.cd_after_theory - oracles.family1_after(r.param)) <= 1e-9
        assert abs(r.cd_before_theory) <= 1e-9


def test_pure2_analytic_key_points():
    _, rows = _analytic("family2", (0.0, 22.5))
    by_theta = {r.param: r for r in rows}
    assert by_theta[0.0].cd_before_theory == pytest.approx(1.0, abs=1e-9)
    assert by_theta[0.0].cd_after_theory == pytest.approx(1.0, abs=1e-9)
    assert by_theta[0.0].delta_sim == pytest.approx(0.0, abs=1e-9)
    assert by_theta[22.5].cd_before_theory == pytest.approx(0.0, abs=1e-9)


def test_pure2_analytic_curves():
    _, rows = _analytic("family2", THETA_GRID)
    for r in rows:
        assert abs(r.cd_before_theory - oracles.family2_before(r.param)) <= 1e-9
        assert abs(r.cd_after_theory - 1.0) <= 1e-9


def test_werner_analytic_values():
    _, rows = _analytic("werner", (0.0, 0.5, 0.949, 1.0))
    by_p = {r.param: r for r in rows}
    assert by_p[0.0].cd_after_theory == pytest.approx(0.0, abs=1e-12)
    assert by_p[0.0].bound_qi == pytest.approx(0.0, abs=1e-12)
    assert by_p[0.5].cd_before_theory == pytest.approx(0.0, abs=1e-12)
    assert by_p[0.5].cd_after_theory == pytest.approx(oracles.werner_after(0.5), abs=1e-9)
    assert by_p[0.5].bound_qi == pytest.approx(oracles.werner_qi_bound(0.5), abs=1e-9)
    assert by_p[0.949].cd_after_theory == pytest.approx(0.8287037182469997, abs=1e-9)
    assert by_p[1.0].cd_after_theory == pytest.approx(1.0, abs=1e-9)
    assert by_p[1.0].bound_qi == pytest.approx(1.0, abs=1e-9)


def test_row_invariants():
    for kind, params in (("family1", THETA_GRID), ("family2", THETA_GRID), ("werner", np.linspace(0, 1, 11))):
        _, rows = _analytic(kind, params)
        for r in rows:
            for v in (r.cd_before_theory, r.cd_before_sim, r.cd_after_theory, r.cd_after_sim):
                assert -1e-9 <= v <= 1.0 + 1e-9
            assert r.delta_sim == pytest.approx(r.cd_after_sim - r.cd_before_sim, abs=1e-12)
            if kind == "werner":
                assert r.cd_after_theory <= r.bound_qi + 1e-9
            else:
                assert r.bound_qi is None


def test_werner_positive_for_tiny_p():
    _, rows = _analytic("werner", (1e-3, 1e-2, 0.1))
    for r in rows:
        assert r.cd_after_theory > 0.0


def test_sampled_rows_are_deterministic():
    cfg = RunConfig(kind="family1", params=(10.0, 22.5), mode="sampled", shots_per_basis=2000, seed=7)
    rows1 = run_pure_experiment(cfg)
    rows2 = run_pure_experiment(cfg)
    assert rows1 == rows2
    for r in rows1:
        assert r.delta_sim == pytest.approx(r.cd_after_sim - r.cd_before_sim, abs=1e-12)


def test_depolarized_preparation_lowers_after_value():
    clean = run_pure_experiment(RunConfig(kind="family1", params=(22.5,)))[0]
    noisy = run_pure_experiment(RunConfig(kind="family1", params=(22.5,), epsilon_prep=0.05))[0]
    assert noisy.cd_after_theory < clean.cd_after_theory
    assert noisy.cd_after_theory == pytest.approx(1.0 - oracles.h2(0.025), abs=1e-9)


# --- serialization ---------------------------------------------------------------

def test_csv_emit_parse_emit_idempotent():
    for kind, params in (("family1", (0.0, 12.5, 22.5)), ("werner", (0.1, 0.5, 0.9))):
        _, rows = _analytic(kind, params)
        text = emit_csv(rows, kind)
        assert text.endswith("\n") and "\r" not in text
        again = emit_csv(parse_rows_csv(text), kind)
        assert again == text


def test_json_round_trip_is_exact():
    cfg, rows = _analytic("werner", (0.25, 0.75))
    text = emit_json(cfg, rows)
    parsed_cfg, parsed_rows = parse_rows_json(text)
    assert parsed_rows == rows
    assert parsed_cfg["kind"] == "werner"
    assert json.loads(text)["meta"]["prng"] == "splitmix64"
    assert json.loads(text)["meta"]["estimator"] == "mle-closed-v1"


def test_csv_rejects_unknown_header():
    with pytest.raises(ValueError):
        parse_rows_csv("a,b,c\n1,2,3\n")


# --- fixtures --------------------------------------------------------------------

def test_fixture_tables_load_with_expected_grids():
    t1, t2, t3 = load_fixture(1), load_fixture(2), load_fixture(3)
    assert t1.params == THETA_GRID
    assert t2.params == THETA_GRID
    assert len(t3.rows) == 16
    # transcription spot checks
    assert t1.rows[9].param == 22.5 and t1.rows[9].cd_after == 0.905
    assert t2.rows[0].delta == -0.0342
    assert t3.rows[-1] .param == 0.949 and t3.rows[-1].cd_after == 0.762


def test_fixture_checksum_guard(monkeypatch):
    from cohdist import fixtures as fx

    monkeypatch.setitem(fx._CHECKSUMS, 1, "0" * 64)
    with pytest.raises(RuntimeError):
        fx.load_fixture(1)


def test_compare_fixtures_zero_for_theory_equal_rows():
    fixture = load_fixture(3)
    rows = [
        ExperimentRow(
            param=f.param,
            cd_before_theory=f.cd_before,
            cd_before_sim=f.cd_before,
            cd_after_theory=f.cd_after,
            cd_after_sim=f.cd_after,
            delta_sim=f.cd_after - f.cd_before,
        )
        for f in fixture.rows
    ]
    report = compare_fixtures(3, rows)
    for r in report.rows:
        assert r.deviation[0] == 0.0
        assert r.deviation[1] == 0.0
        # published delta column is independently rounded, so only table
        # round-off remains when theory matches the other two columns
        assert r.deviation[2] <= 1e-3
    assert report.max_deviation <= 1e-3


def test_compare_fixtures_known_deviations():
    report1 = compare_fixtures(1, run_pure_experiment(fixture_run_config(1)))
    dev10 = {r.param: r for r in report1.rows}[10.0].deviation[1]
    assert dev10 == pytest.approx(abs(0.553 - oracles.family1_after(10.0)), abs=1e-12)
    assert dev10 == pytest.approx(0.0324, abs=1e-3)

    report3 = compare_fixtures(3, run_werner_experiment(fixture_run_config(3)))
    dev895 = {r.param: r for r in report3.rows}[0.895].deviation[1]
    assert dev895 == pytest.approx(abs(0.735 - oracles.werner_after(0.895)), abs=1e-12)
    assert dev895 == pytest.approx(0.0319, abs=1e-3)
    assert report3.max_deviation <= 0.10


def test_compare_fixtures_grid_mismatch():
    _, rows = _analytic("werner", (0.1, 0.2))
    with pytest.raises(ValueError, match="missing"):
        compare_fixtures(3, rows)


def test_deviation_report_serializes():
    report = compare_fixtures(3, run_werner_experiment(fixture_run_config(3)))
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("param,")
    payload = json.loads(report.to_json())
    assert payload["table_id"] == 3
    assert len(payload["rows"]) == 16


# --- CLI ---------------------------------------------------------------------------

def test_cli_pure1_csv_output():
    result = CliRunner().invoke(cli.main, ["pure1", "--points", "0,22.5"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "theta_deg,cd_before_theory,cd_before_sim,cd_after_theory,cd_after_sim,delta_sim"
    assert lines[2].startswith("22.5,")


def test_cli_werner_json_output():
    result = CliRunner().invoke(cli.main, ["werner", "--points", "0.5", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rows"][0]["bound_qi"] == pytest.approx(oracles.werner_qi_bound(0.5), abs=1e-9)


def test_cli_grid_and_points_conflict_is_usage_error():
    result = CliRunner().invoke(cli.main, ["pure1", "--grid", "0:45:2.5", "--points", "1"])
    assert result.exit_code == 2


def test_cli_bad_grid_is_usage_error():
    result = CliRunner().invoke(cli.main, ["pure1", "--grid", "45:0:2.5"])
    assert result.exit_code == 2
    result = CliRunner().invoke(cli.main, ["pure1", "--points", "50"])
    assert result.exit_code == 2


def test_cli_fixtures_exit_codes_follow_tolerance():
    # table 3 sits within 0.08 of theory; a tight tolerance flips the exit code
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "3", "--tolerance", "0.08"])
    assert result.exit_code == 0
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "3", "--tolerance", "0.01"])
    assert result.exit_code == 1
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "9"])
    assert result.exit_code == 2


def test_cli_fixtures_writes_report(tmp_path):
    out = tmp_path / "report.csv"
    result = CliRunner().invoke(
        cli.main, ["fixtures", "--table", "3", "--tolerance", "0.2", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert out.read_text().splitlines()[0].startswith("param,")


def test_cli_sampled_run_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    result = CliRunner().invoke(
        cli.main,
        ["pure1", "--points", "22.5", "--mode", "sampled", "--shots", "2000", "--seed", "5", "--out", str(out)],
    )
    assert result.exit_code == 0
    rows = parse_rows_csv(out.read_text())
    assert rows[0].cd_after_sim == pytest.approx(1.0, abs=0.05)


def test_cli_tomo_demo_json():
    result = CliRunner().invoke(cli.main, ["tomo-demo", "--theta", "22.5", "--shots", "2000"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["basis_bloch"] == [0.0, 1.0, 0.0]
    assert len(payload["outcomes"]) == 2
    for o in payload["outcomes"]:
        assert o["fidelity_mle"] > 0.99
    result = CliRunner().invoke(cli.main, ["tomo-demo", "--theta", "90"])
    assert result.exit_code == 2
