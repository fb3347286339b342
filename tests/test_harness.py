import ast
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist import __version__, cli, coherence, harness, protocol, qcore, states, tomography
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
    run_experiment,
)
from cohdist.tomography import TomographyRecord, binomial_draw, derive_stream, simulate_counts

import oracles

THETA_GRID = tuple(2.5 * k for k in range(19))


def _analytic(kind, params):
    cfg = RunConfig(kind=kind, params=tuple(params))
    return cfg, run_experiment(cfg)


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


_grid_texts = st.one_of(
    st.text(),
    st.lists(st.one_of(st.text(max_size=8), st.floats().map(repr), st.integers(-10**6, 10**6).map(str)), max_size=4)
    .map(":".join),
    st.tuples(st.floats(-100, 100), st.floats(-100, 100), st.floats(-1, 100)).map(lambda v: ":".join(map(repr, v))),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grid_texts)
def test_parse_grid_raises_only_value_error(text):
    try:
        grid = parse_grid(text)
    except ValueError:
        return
    assert 1 <= len(grid) <= harness.GRID_MAX_POINTS
    assert all(a < b and b - a > harness.GRID_SNAP for a, b in zip(grid, grid[1:]))


def test_parse_grid_rejects_points_closer_than_grid_snap():
    # a step below the spacing of doubles repeats a point (1e16 + 1 == 1e16); points within GRID_SNAP are one point
    for text in ("1e16:10000000000000002:1", "0.5:0.5000000000000002:1e-16", "0:1e-9:1e-9", "0:1e-9:4e-10"):
        with pytest.raises(ValueError, match="apart"):
            parse_grid(text)
    result = CliRunner().invoke(cli.main, ["werner", "--grid", "0.5:0.5000000000000002:1e-16"])
    assert result.exit_code == 2


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(kind="family3", params=(1.0,))
    with pytest.raises(ValueError):
        RunConfig(kind="werner", params=())
    with pytest.raises(ValueError):
        RunConfig(kind="werner", params=(0.5,), mode="sampled", shots_per_basis=0)
    with pytest.raises(ValueError):
        RunConfig(kind="werner", params=(0.5,), mode="exact")
    for value in (True, np.bool_(False), "0.1", None, 1j, math.nan, -0.1, 1.5):
        with pytest.raises(ValueError, match="epsilon_prep"):
            RunConfig(kind="werner", params=(0.5,), epsilon_prep=value)
    for value in ("0.5", True, np.bool_(True), 1j, None):
        with pytest.raises(ValueError, match="params"):
            RunConfig(kind="werner", params=(0.5, value))
    params = RunConfig(kind="werner", params=(np.float32(0.25), np.float64(0.5), np.int64(1))).params
    assert params == (0.25, 0.5, 1.0) and all(type(p) is float for p in params)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="p must be in"):
            run_experiment(RunConfig(kind="werner", params=(0.5, value)))


def test_run_config_reads_params_once():
    # a generator is consumed by the first read; an array of several points has no truth value
    from_generator = RunConfig(kind="werner", params=(x for x in [0.2, 0.1]))
    assert from_generator.params == (0.1, 0.2)
    rows = json.loads(emit_json(from_generator, run_experiment(from_generator)))["rows"]
    assert [row["param"] for row in rows] == [0.1, 0.2]
    assert RunConfig(kind="werner", params=np.array([0.5, 0.25])).params == (0.25, 0.5)
    assert RunConfig(kind="werner", params=[0.5]).params == (0.5,)
    with pytest.raises(ValueError, match="parameter grid is empty"):
        RunConfig(kind="werner", params=iter(()))
    with pytest.raises(ValueError, match="parameter grid is empty"):
        RunConfig(kind="werner", params=np.array([]))
    for value in (0.5, None, np.float64(0.5), np.array(0.5)):
        with pytest.raises(ValueError, match="params"):
            RunConfig(kind="werner", params=value)
    with pytest.raises(ValueError, match="params must be real numbers"):
        RunConfig(kind="werner", params=np.array([[0.1, 0.2]]))


def test_shots_and_seeds_outside_their_exact_ranges_are_usage_errors():
    shots_max = tomography.SHOTS_MAX
    for seed in (-5, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(kind="werner", params=(0.5,), seed=seed)
        with pytest.raises(ValueError, match="seed"):
            simulate_counts(np.eye(2) / 2, 100, seed=seed)
    with pytest.raises(ValueError, match="shots"):
        RunConfig(kind="werner", params=(0.5,), mode="sampled", shots_per_basis=shots_max + 1)
    RunConfig(kind="werner", params=(0.5,), mode="sampled", shots_per_basis=shots_max, seed=2**64 - 1)
    runner = CliRunner()
    # 18446744073709551621 = 2**64 + 5 would alias seed 5, and -5 seed 2**64 - 5
    bad = (["--shots", "100000000000000000000"], ["--shots", str(shots_max + 1)], ["--seed", "18446744073709551621"],
           ["--seed", "-5"], ["--seed", str(2**64)])
    for args in bad:
        assert runner.invoke(cli.main, ["werner", "--mode", "sampled", "--points", "0.5", *args]).exit_code == 2, args
        assert runner.invoke(cli.main, ["tomo-demo", *args]).exit_code == 2, args
    ok = runner.invoke(cli.main, ["werner", "--mode", "sampled", "--points", "0.5", "--seed", str(2**64 - 1)])
    assert ok.exit_code == 0
    assert "[0, 2^64)" in runner.invoke(cli.main, ["werner", "--help"]).output


def test_run_config_checks_shots_in_every_mode():
    for mode in ("analytic", "sampled"):
        for shots in (0, -5, tomography.SHOTS_MAX + 1):
            with pytest.raises(ValueError, match="shots_per_basis"):
                RunConfig(kind="werner", params=(0.5,), mode=mode, shots_per_basis=shots)
        for shots in (1, tomography.SHOTS_MAX):
            assert RunConfig(kind="werner", params=(0.5,), mode=mode, shots_per_basis=shots).shots_per_basis == shots


@pytest.mark.parametrize("value", [1.5, 1e4, 100000.0, True, "7"])
def test_integer_fields_reject_other_values_naming_the_field(value):
    for field in ("shots_per_basis", "seed"):
        with pytest.raises(ValueError, match=field):
            RunConfig(kind="werner", params=(0.5,), mode="sampled", **{field: value})
    with pytest.raises(ValueError, match="shots_per_basis"):
        simulate_counts(np.eye(2) / 2, value, seed=1)
    with pytest.raises(ValueError, match="seed"):
        simulate_counts(np.eye(2) / 2, 100, seed=value)
    with pytest.raises(ValueError, match="n must"):
        binomial_draw(value, 0.5, 0.25)


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32])
def test_numpy_integer_fields_are_stored_as_int(integer):
    cfg = RunConfig(kind="werner", params=(0.5,), mode="sampled", shots_per_basis=integer(1000), seed=integer(3))
    assert type(cfg.shots_per_basis) is int and type(cfg.seed) is int
    plain = RunConfig(kind="werner", params=(0.5,), mode="sampled", shots_per_basis=1000, seed=3)
    assert emit_json(cfg, run_experiment(cfg)) == emit_json(plain, run_experiment(plain))
    record = simulate_counts(np.eye(2) / 2, integer(1000), seed=integer(3))
    assert record == simulate_counts(np.eye(2) / 2, 1000, seed=3) and type(record.seed) is int
    assert binomial_draw(integer(1000), 0.3, 0.75) == binomial_draw(1000, 0.3, 0.75)


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
    rows1 = run_experiment(cfg)
    rows2 = run_experiment(cfg)
    assert rows1 == rows2
    for r in rows1:
        assert r.delta_sim == pytest.approx(r.cd_after_sim - r.cd_before_sim, abs=1e-12)


def test_depolarized_preparation_lowers_after_value():
    clean = run_experiment(RunConfig(kind="family1", params=(22.5,)))[0]
    noisy = run_experiment(RunConfig(kind="family1", params=(22.5,), epsilon_prep=0.05))[0]
    assert noisy.cd_after_theory < clean.cd_after_theory
    assert noisy.cd_after_theory == pytest.approx(1.0 - oracles.h2(0.025), abs=1e-9)


def test_depolarized_werner_state_stays_in_the_family():
    # (1 - eps) W(p) + eps I/4 = W((1 - eps) p): the runner's preparation noise at p = 0.8, eps = 0.25 gives W(0.6)
    rows = []
    for args in (["--points", "0.8", "--epsilon-prep", "0.25"], ["--points", "0.6"]):
        result = CliRunner().invoke(cli.main, ["werner", *args, "--format", "json"])
        assert result.exit_code == 0, result.output
        rows.append(json.loads(result.output)["rows"][0])
    for column in ("cd_before_theory", "cd_after_theory", "bound_qi"):
        assert abs(rows[0][column] - rows[1][column]) <= 1e-12, column


# --- serialization ---------------------------------------------------------------

def test_csv_emit_parse_emit_idempotent():
    for kind, params in (("family1", (0.0, 12.5, 22.5)), ("werner", (0.1, 0.5, 0.9))):
        _, rows = _analytic(kind, params)
        text = emit_csv(rows, kind)
        assert text.endswith("\n") and "\r" not in text
        again = emit_csv(parse_rows_csv(text), kind)
        assert again == text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(harness.KINDS)), st.lists(st.lists(st.floats(), min_size=7, max_size=7), max_size=6))
def test_csv_emit_parse_emit_is_a_fixed_point(kind, cells):
    rows = [ExperimentRow(*c[:6], bound_qi=c[6] if "bound_qi" in harness.KINDS[kind].columns else None) for c in cells]
    text = emit_csv(rows, kind)
    assert emit_csv(parse_rows_csv(text), kind) == text


def test_json_round_trip_is_exact():
    cfg, rows = _analytic("werner", (0.25, 0.75))
    text = emit_json(cfg, rows)
    parsed_cfg, parsed_rows = oracles.parse_rows_json(text)
    assert parsed_rows == rows
    assert parsed_cfg["kind"] == "werner"
    assert json.loads(text)["meta"]["prng"] == "splitmix64-sampler-v5"
    assert json.loads(text)["meta"]["estimator"] == "mle-newton-v2"


def test_package_version_matches_pyproject():
    # meta.version is cohdist.__version__, and a version bump must change pyproject.toml with it
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == __version__ == harness.META["version"]


def _import_graph(package: Path) -> dict[str, set[str]]:
    """{module: the package's modules it imports}; `from . import X` with X not a submodule is an edge to __init__."""
    modules = {p.stem for p in package.glob("*.py")}

    def targets(module: str, names: list[str]) -> set[str]:  # module: the dotted name below the package, "" for the package
        return {module.split(".")[0]} if module else {n if n in modules else "__init__" for n in names}

    graph = {}
    for name in modules:
        graph[name] = edges = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                edges |= targets(node.module or "", [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == package.name:
                edges |= targets(node.module.partition(".")[2], [a.name for a in node.names])
            elif isinstance(node, ast.Import):
                for top, _, rest in (a.name.partition(".") for a in node.names):
                    if top == package.name:
                        edges |= targets(rest, ["__init__"])  # `import cohdist` runs __init__
    return graph


def test_package_has_no_import_cycle():
    graph = _import_graph(Path(harness.__file__).parent)
    assert {"harness", "tomography", "__init__"} <= set(graph) and "harness" in graph["__init__"]
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            assert name != start, f"{start} imports itself through {sorted(seen)}"
            if name not in seen:
                seen.add(name)
                todo += graph[name]


@pytest.mark.parametrize(
    "value", [1, np.int64(0), np.float32(0.05), np.float64(0.05)], ids=["int", "int64", "float32", "float64"]
)
def test_epsilon_prep_is_stored_as_float(value):
    cfg = RunConfig(kind="family1", params=(22.5,), epsilon_prep=value)
    assert type(cfg.epsilon_prep) is float and cfg.epsilon_prep == float(value)
    text = emit_json(cfg, run_experiment(cfg))
    assert f'"epsilon_prep": {float(value)!r}\n' in text  # the last config key


def test_readme_meta_example_is_the_output_meta():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r'"meta": (\{[^}]*\})', readme).group(1)
    assert " ".join(example.split()) == json.dumps(harness.META)


def test_readme_config_example_has_the_run_config_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(re.search(r'"config": (\{[^}]*\})', readme).group(1))
    assert list(example) == [f.name for f in dataclasses.fields(RunConfig)]
    RunConfig(**example)


def test_every_json_output_carries_the_one_meta(tmp_path):
    out = tmp_path / "out.json"
    for args in (["werner", "--points", "0.5"], ["fixtures", "--table", "3"], ["tomo-demo", "--shots", "2000"]):
        result = CliRunner().invoke(cli.main, [*args, "--format", "json", "--out", str(out)])
        assert result.exit_code == 0, args
        assert json.loads(out.read_text())["meta"] == harness.META, args


def test_csv_rejects_unknown_header():
    with pytest.raises(ValueError):
        parse_rows_csv("a,b,c\n1,2,3\n")


def test_csv_layout_follows_the_kind_table():
    assert harness.KINDS["family1"].header == harness.PURE_CSV_HEADER == harness.KINDS["family2"].header
    assert harness.KINDS["werner"].header == harness.WERNER_CSV_HEADER
    for kind, params in (("family2", (0.0, 10.0, 45.0)), ("werner", (0.0, 0.4, 1.0))):
        _, rows = _analytic(kind, params)
        text = emit_csv(rows, kind)
        header, *body = text.splitlines()
        assert header == harness.KINDS[kind].header
        for row, line in zip(rows, body):
            assert line == ",".join(f"{getattr(row, c):.6g}" for c in harness.KINDS[kind].columns)
        with pytest.raises(ValueError):  # a row with a column too many or too few
            parse_rows_csv(f"{header}\n{body[0]},1\n")
        with pytest.raises(ValueError):
            parse_rows_csv(f"{header}\n{body[0].rsplit(',', 1)[0]}\n")


# CSV cells the writers must agree on: nan, +-inf, -0.0, subnormals and +-1.79e308 among st.floats(), plus ints
# and numpy scalars, which "%.6g" and "{:.6g}".format both turn into a double
_CSV_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e-310, 1.79e308, -1.79e308, 999999.5, 9999995.0]),
    st.integers(-(10**15), 10**15),
    st.floats().map(np.float64),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(harness.KINDS)), st.lists(st.lists(_CSV_CELLS, min_size=7, max_size=7), max_size=4))
def test_emit_csv_matches_the_per_cell_format_oracle(kind, cells):
    rows = [ExperimentRow(*c) for c in cells]
    want = oracles.emit_csv_oracle(rows, kind)
    assert emit_csv(rows, kind) == want
    assert emit_csv(iter(rows), kind) == want  # any iterable of rows


@pytest.mark.parametrize("count", [0, 1, harness.RUN_CHUNK + 1])
def test_emit_csv_matches_the_oracle_across_blocks(count):
    rng = np.random.default_rng(count)
    cells = (rng.standard_normal((count, 7)) * 10.0 ** rng.integers(-320, 300, (count, 7))).tolist()
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.79e308, 7, np.float64(0.1)]
    rows = [ExperimentRow(special[i % len(special)], *c[1:]) for i, c in enumerate(cells)]
    for kind in harness.KINDS:
        want = oracles.emit_csv_oracle(rows, kind)
        assert want.count("\n") == count + 1
        assert _first_difference(emit_csv(rows, kind), want) is None
        assert _first_difference(emit_csv((r for r in rows), kind), want) is None


def _first_difference(got: str, want: str):
    """None if got == want, else (line index, got line, wanted line) of the first difference: a short report where
    pytest's own diff of two 4,000-line strings would take minutes."""
    if got == want:
        return None
    pairs = enumerate(itertools.zip_longest(got.split("\n"), want.split("\n")))
    return next((i, a, b) for i, (a, b) in pairs if a != b)


@pytest.mark.parametrize("table_id", [1, 2, 3])
def test_deviation_csv_matches_the_per_cell_format_oracle(table_id):
    report = compare_fixtures(table_id, run_experiment(fixture_run_config(table_id)))
    assert report.to_csv() == oracles.deviation_csv_oracle(report)


def _parsed(parse, text: str) -> str:
    """The repr of parse(text)'s rows, or its ValueError's message (nan rows compare by repr)."""
    try:
        return repr(parse(text))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_parse_rows_csv_keeps_the_per_line_parser_semantics():
    odd = [ExperimentRow(0.5, math.nan, -0.0, math.inf, -math.inf, 5e-324, 1.79e308)]
    texts = ["a,b,c\n1,2,3\n"]
    for kind, params in (("family1", (0.0, 22.5)), ("werner", (0.1, 0.5, 0.9))):
        text = emit_csv(run_experiment(RunConfig(kind=kind, params=params)) + odd, kind)
        header, *body = text.splitlines()
        texts += [
            text,
            text.replace("\n", "\r\n"),  # CRLF
            "\n\n" + text.replace("\n", "\n\n") + " \n\n",  # blank lines, and whitespace at the end
            header,
            header + "\r\n\r\n",  # header only: no rows
            f"{header}\n{body[0]},1\n",  # a cell too many
            f"{header}\n{body[0]}\n{body[1].rsplit(',', 1)[0]}\n",  # a cell too few, on the second row
            f"{header}\n{body[0].replace(',', ',x', 1)}\n",  # a cell that is not a number
        ]
    for text in texts:
        assert _parsed(parse_rows_csv, text) == _parsed(oracles.parse_rows_csv_oracle, text), repr(text)
    assert parse_rows_csv(harness.WERNER_CSV_HEADER + "\r\n\r\n") == []


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


def test_fixture_table_id_must_be_an_integer():
    # True and 1.0 equal the key 1 of the checksum table; they are unknown table ids, not missing files
    for bad in (True, False, 1.0, np.float64(2.0), np.bool_(True), "1", 4, np.int64(0)):
        for call in (load_fixture, fixture_run_config, lambda t: harness.compare_fixtures(t, [])):
            with pytest.raises(ValueError, match="table_id must be 1, 2 or 3"):
                call(bad)
    for good in (np.int64(1), np.uint8(2), 3):
        table = load_fixture(good)
        assert type(table.table_id) is int and table is load_fixture(int(good))
    rows = harness.run_experiment(fixture_run_config(np.int64(3)))
    assert type(harness.compare_fixtures(np.int64(3), rows).table_id) is int


def test_fixture_checksum_guard(monkeypatch):
    from cohdist import fixtures as fx

    monkeypatch.setitem(fx._CHECKSUMS, 1, "0" * 64)
    with pytest.raises(RuntimeError):
        fx.load_fixture(1)


def test_fixture_checksum_is_checked_after_a_cached_load(monkeypatch):
    from cohdist import fixtures as fx

    table = fx.load_fixture(1)
    assert fx.load_fixture(1) is table  # read and parsed once
    monkeypatch.setitem(fx._CHECKSUMS, 1, "0" * 64)
    with pytest.raises(RuntimeError, match="failed its checksum"):
        fx.load_fixture(1)


def test_fixture_parse_is_keyed_on_the_verified_bytes(monkeypatch):
    from cohdist import fixtures as fx

    edited = fx._bundled(1).replace(b",0.905,", b",0.906,")
    monkeypatch.setattr(fx, "_bundled", lambda table_id: edited)
    with pytest.raises(RuntimeError, match="failed its checksum"):
        fx.load_fixture(1)
    monkeypatch.setitem(fx._CHECKSUMS, 1, hashlib.sha256(edited).hexdigest())
    assert fx.load_fixture(1).rows[9].cd_after == 0.906


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
    report1 = compare_fixtures(1, run_experiment(fixture_run_config(1)))
    dev10 = {r.param: r for r in report1.rows}[10.0].deviation[1]
    assert dev10 == pytest.approx(abs(0.553 - oracles.family1_after(10.0)), abs=1e-12)
    assert dev10 == pytest.approx(0.0324, abs=1e-3)

    report3 = compare_fixtures(3, run_experiment(fixture_run_config(3)))
    dev895 = {r.param: r for r in report3.rows}[0.895].deviation[1]
    assert dev895 == pytest.approx(abs(0.735 - oracles.werner_after(0.895)), abs=1e-12)
    assert dev895 == pytest.approx(0.0319, abs=1e-3)
    assert report3.max_deviation <= 0.10


def test_compare_fixtures_grid_mismatch():
    _, rows = _analytic("werner", (0.1, 0.2))
    with pytest.raises(ValueError, match="missing"):
        compare_fixtures(3, rows)


def test_deviation_report_serializes():
    report = compare_fixtures(3, run_experiment(fixture_run_config(3)))
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("param,")
    payload = json.loads(report.to_json())
    assert payload["table_id"] == 3
    assert len(payload["rows"]) == 16


# --- CLI ---------------------------------------------------------------------------

def test_run_commands_are_the_rows_of_one_table():
    assert sorted(cli.main.commands) == ["fixtures", "pure1", "pure2", "tomo-demo", "werner"]
    for name, (kind, grid, help_text) in cli._RUNS.items():
        assert kind in harness.KINDS and cli.main.commands[name].help == help_text
        assert harness.parse_grid(grid)


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


def test_cli_values_that_are_not_numbers_are_usage_errors_naming_the_grid_or_points():
    for args, name in ((["--grid", "a:1:0.1"], "grid 'a:1:0.1'"), (["--points", "0.5,x"], "--points '0.5,x'")):
        result = CliRunner().invoke(cli.main, ["werner", *args])
        assert result.exit_code == 2, args
        assert f"{name} has a value that is not a number" in result.output


def test_cli_points_closer_than_grid_snap_are_usage_error():
    for points in ("10,10", "22.5,0,22.5000000001"):
        result = CliRunner().invoke(cli.main, ["pure1", "--points", points])
        assert result.exit_code == 2, points
        assert "apart" in result.output
    assert CliRunner().invoke(cli.main, ["pure1", "--points", "22.5,0,22.500000002"]).exit_code == 0


@pytest.mark.parametrize(
    "args",
    [["werner", "--points", "0.5"], ["fixtures", "--table", "3"], ["werner", "--grid", "0:1:0.00001"], ["tomo-demo"]],
)
def test_cli_unwritable_out_is_usage_error(tmp_path, monkeypatch, args):
    def no_work(*_):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(protocol, "_pauli_coordinates", no_work)  # tomo-demo's first kernel
    (tmp_path / "file").write_text("keep")
    for out in (tmp_path / "missing" / "x.csv", tmp_path, tmp_path / "file" / "x.csv"):
        result = CliRunner().invoke(cli.main, args + ["--out", str(out)])
        assert result.exit_code == 2, out
        assert f"cannot write --out {str(out)!r}: " in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "keep"


def test_out_check_creates_and_truncates_nothing(tmp_path):
    existing, new = tmp_path / "rows.csv", tmp_path / "new.csv"
    existing.write_text("keep")
    cli._check_out(str(existing))
    cli._check_out(str(new))
    assert existing.read_text() == "keep"
    assert not new.exists()


def test_negative_zero_parameter_reads_as_zero():
    params = RunConfig(kind="family2", params=(10.0, -0.0)).params
    assert params == (0.0, 10.0) and math.copysign(1.0, params[0]) == 1.0
    negative = CliRunner().invoke(cli.main, ["pure2", "--points=-0.0"])
    assert negative.exit_code == 0
    assert negative.output == CliRunner().invoke(cli.main, ["pure2", "--points", "0"]).output


def test_cli_fixtures_exit_codes_follow_tolerance():
    # table 3 sits within 0.08 of theory; a tight tolerance flips the exit code
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "3", "--tolerance", "0.08"])
    assert result.exit_code == 0
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "3", "--tolerance", "0.01"])
    assert result.exit_code == 1
    result = CliRunner().invoke(cli.main, ["fixtures", "--table", "9"])
    assert result.exit_code == 2


def test_cli_fixtures_rejects_non_finite_tolerance():
    for bad in ("nan", "inf", "-inf"):
        result = CliRunner().invoke(cli.main, ["fixtures", "--table", "3", "--tolerance", bad])
        assert result.exit_code == 2, bad
        assert "finite" in result.output


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


def test_one_run_writes_one_set_of_bytes(tmp_path):
    # --format and --out choose where a run is written, not what: stdout and every path get the same bytes
    args = ["werner", "--points", "0.25,0.5", "--mode", "sampled", "--shots", "10001", "--epsilon-prep", "0.05",
            "--format", "json"]
    outputs = [CliRunner().invoke(cli.main, args).stdout_bytes]
    for name in ("a.json", "b.json"):
        assert CliRunner().invoke(cli.main, [*args, "--out", str(tmp_path / name)]).exit_code == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@pytest.mark.parametrize("kind", sorted(harness.KINDS))
def test_json_config_is_the_run(kind, mode):
    params = (0.25, 0.5) if kind == "werner" else (0.0, 17.3)
    command = {"family1": "pure1", "family2": "pure2", "werner": "werner"}[kind]
    args = ["--points", ",".join(map(repr, params)), "--mode", mode, "--shots", "10001", "--seed", "7",
            "--epsilon-prep", "0.05", "--format", "json"]
    text = CliRunner().invoke(cli.main, [command, *args]).stdout
    config = RunConfig(**json.loads(text)["config"])
    assert config == RunConfig(kind, params, mode, shots_per_basis=10_001, seed=7, epsilon_prep=0.05)
    assert emit_json(config, run_experiment(config)) == text


@pytest.mark.parametrize("theta", [-0.0, 17.3])
@pytest.mark.parametrize("family", [1, 2])
def test_tomo_demo_config_is_its_run(family, theta):
    args = ["--family", str(family), f"--theta={theta!r}", "--shots", "10001", "--seed", "3"]
    payload = json.loads(CliRunner().invoke(cli.main, ["tomo-demo", *args]).stdout)
    if theta == 0.0:
        assert payload["config"]["params"] == [0.0] and math.copysign(1.0, payload["config"]["params"][0]) == 1.0
    config = RunConfig(**payload["config"])
    assert config == RunConfig(f"family{family}", (theta,), mode="sampled", shots_per_basis=10_001, seed=3)
    row = run_experiment(config)[0]
    assert sum(o["prob"] * o["cr_mle"] for o in payload["outcomes"]) == row.cd_after_sim


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


@pytest.mark.parametrize("family", [1, 2])
def test_tomo_demo_prints_the_runners_point_zero(family):
    # shots on both sampler paths; 17.3 is off the default grid
    for theta, shots, seed in itertools.product((0.0, 17.3, 45.0), (2000, 100_001), (0, 2**64 - 1)):
        args = ["--family", str(family), "--theta", repr(theta), "--shots", str(shots), "--seed", str(seed)]
        outcomes = json.loads(CliRunner().invoke(cli.main, ["tomo-demo", *args]).output)["outcomes"]
        row = run_experiment(RunConfig(f"family{family}", (theta,), mode="sampled", shots_per_basis=shots, seed=seed))[0]
        assert sum(o["prob"] * o["cr_mle"] for o in outcomes) == row.cd_after_sim, args
        truth = protocol.alice_measure(qcore.projector(getattr(states, f"family{family}")(theta)), protocol.MeasurementBasis((0, 1, 0)))
        for t, (o, bob) in enumerate(zip(outcomes, truth), start=1):
            want = simulate_counts(bob.bob_state, shots, derive_stream(seed, 0, t))
            assert TomographyRecord.from_json(json.dumps(o["record"])) == want, args


# --- the batched runner against the per-point dense runner (tests/oracles.py) -----

COLUMNS = ("param", "cd_before_theory", "cd_before_sim", "cd_after_theory", "cd_after_sim", "delta_sim")


def _assert_rows_match(rows, ref, tol=1e-12):
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        for col in COLUMNS:
            assert abs(getattr(row, col) - getattr(want, col)) <= tol, (row.param, col)
        if want.bound_qi is None:
            assert row.bound_qi is None
        else:
            assert abs(row.bound_qi - want.bound_qi) <= tol, (row.param, "bound_qi")


def _oracle_grids():
    rng = np.random.default_rng(61)
    grids = {kind: [harness.parse_grid(grid)] for kind, grid, _ in cli._RUNS.values()}
    for table_id in (1, 2, 3):
        cfg = fixture_run_config(table_id)
        grids[cfg.kind].append(cfg.params)
    grids["family1"] += [(0.0, 45.0), tuple(rng.uniform(0.0, 45.0, 181))]
    grids["family2"] += [(0.0, 45.0), tuple(rng.uniform(0.0, 45.0, 181))]
    grids["werner"] += [(0.0, 1.0), tuple(rng.uniform(0.0, 1.0, 181))]
    return grids


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3])
def test_run_experiment_matches_dense_oracle(epsilon):
    for kind, grids in _oracle_grids().items():
        for params in grids:
            cfg = RunConfig(kind=kind, params=params, epsilon_prep=epsilon)
            _assert_rows_match(harness.run_experiment(cfg), oracles.dense_run_oracle(cfg))


def test_sampled_run_matches_dense_oracle():
    # the batched pipeline (p+ from Bob's Bloch vectors, windowed inversion, lockstep MLE) agrees to rounding with
    # the dense runner, which tomographs Bob's partial traces one record at a time with the scalar sampler and
    # MLE, and gives the CSV bytes of the per-record runner on its own Bloch vectors
    grids = {"family1": (0.0, 12.5, 22.5, 45.0), "family2": (0.0, 30.0, 45.0), "werner": (0.0, 0.5, 0.95, 1.0)}
    for kind, params in grids.items():
        for epsilon in (0.0, 0.05):
            for shots in (1, 200, 10_000, 10_001, 100_000, 1_000_000):
                cfg = RunConfig(kind, params, mode="sampled", shots_per_basis=shots, seed=11, epsilon_prep=epsilon)
                rows = harness.run_experiment(cfg)
                _assert_rows_match(rows, oracles.dense_run_oracle(cfg))
                assert emit_csv(rows, kind) == emit_csv(oracles.per_record_sampled_oracle(cfg), kind)


ROWS_0_9_0 = Path(__file__).parent / "data" / "rows_0.9.0.json"


def _row_bits() -> dict:
    """{"<kind> <mode> <epsilon>": [[field.hex() or None, ...] per row]} of run_experiment on each kind's CLI grid.

    Analytic and sampled (1,000 shots, seed 5) at epsilon 0 and 0.05.  rows_0.9.0.json holds this function's output
    under cohdist 0.9.0, whose runner built each row through ExperimentRow's own __new__:
    json.dumps({"about": ..., **_row_bits()}, indent=1) with tests/ and src/ on sys.path."""
    out = {}
    for kind, grid, _ in cli._RUNS.values():
        for mode in ("analytic", "sampled"):
            for epsilon in (0.0, 0.05):
                cfg = RunConfig(kind, harness.parse_grid(grid), mode=mode, shots_per_basis=1000, seed=5, epsilon_prep=epsilon)
                rows = harness.run_experiment(cfg)
                assert all(type(row) is ExperimentRow for row in rows)
                assert all(type(x) is float or (x is None and name == "bound_qi") for row in rows for name, x in row._asdict().items())
                out[f"{kind} {mode} {epsilon}"] = [[None if x is None else x.hex() for x in row] for row in rows]
    return out


def test_rows_match_0_9_0():
    # the runner builds rows with tuple.__new__, not ExperimentRow's Python-level __new__: the same rows, field for field
    stored = json.loads(ROWS_0_9_0.read_text())
    got = _row_bits()
    assert sorted(got) == sorted(k for k in stored if k != "about")
    for name, rows in got.items():
        assert rows == stored[name], f"{name} differs from the golden written by: {stored['about']}"


def test_sampled_scoring_matches_scalar_code_to_rounding():
    # sampled rows score each estimate with numpy's log2 and norm; the per-record runner used libm's log2 and hypot
    rng = np.random.default_rng(5)
    r = rng.normal(size=(2000, 3)) * rng.uniform(0.0, 1.2, (2000, 1))
    r[:100] /= np.linalg.norm(r[:100], axis=1, keepdims=True)
    r[100:110] = [[0.0, 0.0, 1.0]] * 10
    want = [oracles._qubit_entropy_at(z) - oracles._qubit_entropy_at(math.hypot(x, y, z)) for x, y, z in r.tolist()]
    assert np.max(np.abs(protocol._qubit_coherence(r) - want)) <= 1e-14


def test_chunked_run_equals_one_pass(monkeypatch):
    # stream indices count from the start of the whole grid, not of the chunk
    cfgs = [RunConfig(kind, params, mode="sampled", shots_per_basis=500, seed=3) for kind, params in
            (("family1", tuple(np.linspace(0.0, 45.0, 7))), ("werner", tuple(np.linspace(0.0, 1.0, 7))))]
    whole = [harness.run_experiment(cfg) for cfg in cfgs]
    monkeypatch.setattr(harness, "RUN_CHUNK", 3)
    assert [harness.run_experiment(cfg) for cfg in cfgs] == whole
    monkeypatch.setattr(harness, "RUN_CHUNK", 1)
    assert [harness.run_experiment(cfg) for cfg in cfgs] == whole


def test_invalid_factory_state_names_parameter_and_exits_2(monkeypatch):
    def factory(params):  # a chunk's Werner stack, but trace 1 and Hermitian with eigenvalue -0.1 at p = 0.5
        rho = harness.states.make_werner(params)
        rho[np.asarray(params) == 0.5] = np.diag([0.5, 0.3, 0.3, -0.1])
        return rho

    monkeypatch.setitem(harness.KINDS, "werner", harness.KINDS["werner"]._replace(factory=factory))
    with pytest.raises(qcore.InvalidStateError, match="parameter 0.5"):
        harness.run_experiment(RunConfig(kind="werner", params=(0.25, 0.5, 0.75)))
    result = CliRunner().invoke(cli.main, ["werner", "--points", "0.25,0.5"])
    assert result.exit_code == 2
    assert "parameter 0.5" in result.output
    harness.run_experiment(RunConfig(kind="werner", params=(0.25, 0.75)))


@pytest.mark.parametrize("entry, bad", [((1, 2), np.nan), ((0, 0), np.nan), ((3, 0), complex(0.0, np.nan))])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_non_finite_factory_matrix_names_parameter_and_exits_2(monkeypatch, entry, bad, epsilon):
    # a matrix factory's stack with a nan entry at p = 0.5 fails that point, where eigvalsh raised LinAlgError
    def factory(params):
        rho = harness.states.make_werner(params)
        rho[(np.asarray(params) == 0.5, *entry)] = bad
        return rho

    monkeypatch.setitem(harness.KINDS, "werner", harness.KINDS["werner"]._replace(factory=factory))
    message = f"invalid density matrix at parameter 0.5: {qcore.validate_density(oracles.depolarize(factory(0.5), epsilon))}"
    with pytest.raises(qcore.InvalidStateError) as err:
        harness.run_experiment(RunConfig(kind="werner", params=(0.25, 0.5, 0.75), epsilon_prep=epsilon))
    assert str(err.value) == message
    result = CliRunner().invoke(cli.main, ["werner", "--points", "0.25,0.5", "--epsilon-prep", str(epsilon)])
    assert result.exit_code == 2
    assert "parameter 0.5" in result.output


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_invalid_factory_ket_names_parameter_and_exits_2(monkeypatch, epsilon):
    # a pure kind's kets are checked by their norm: |psi|^2 off by 2e-3 at theta = 10, a nan entry at theta = 20
    def factory(params):
        psi = harness.states.family1(params)
        psi[np.asarray(params) == 10.0] *= 1.001
        psi[np.asarray(params) == 20.0, 1] = np.nan
        return psi

    monkeypatch.setitem(harness.KINDS, "family1", harness.KINDS["family1"]._replace(factory=factory))
    for theta in (10.0, 20.0):
        rho = oracles.depolarize(qcore.projector(factory(theta)), epsilon)
        message = f"invalid density matrix at parameter {theta}: {qcore.validate_density(rho)}"  # the message of a bad matrix
        with pytest.raises(qcore.InvalidStateError) as err:
            harness.run_experiment(RunConfig(kind="family1", params=(5.0, theta, 30.0), epsilon_prep=epsilon))
        assert str(err.value) == message
        result = CliRunner().invoke(cli.main, ["pure1", "--points", f"5,{theta:g},30", "--epsilon-prep", str(epsilon)])
        assert result.exit_code == 2
        assert f"parameter {theta}" in result.output
    harness.run_experiment(RunConfig(kind="family1", params=(5.0, 30.0), epsilon_prep=epsilon))


@pytest.mark.parametrize(
    "epsilon, norm_sq, ok", [(0.5, 1.0 + 1.5e-10, True), (0.5, 1.0 + 3e-10, False), (0.5, 1.0 - 3e-10, False), (1.0, 4.0, True)]
)
def test_factory_ket_passes_when_its_depolarized_matrix_does(monkeypatch, epsilon, norm_sq, ok):
    # the check reads the depolarized trace, (1 - eps) |psi|^2 + eps: a norm just outside TRACE_TOL passes at eps = 0.5,
    # any finite ket passes at eps = 1 (its state is I/4), and the report in a raised error always reads ok=False
    def factory(params):
        psi = harness.states.family1(params)
        psi[np.asarray(params) == 10.0] *= math.sqrt(norm_sq)
        return psi

    monkeypatch.setitem(harness.KINDS, "family1", harness.KINDS["family1"]._replace(factory=factory))
    report = qcore.validate_density(oracles.depolarize(qcore.projector(factory(10.0)), epsilon))
    assert report.ok is ok
    config = RunConfig(kind="family1", params=(5.0, 10.0), epsilon_prep=epsilon)
    if ok:
        assert len(harness.run_experiment(config)) == 2
    else:
        with pytest.raises(qcore.InvalidStateError) as err:
            harness.run_experiment(config)
        assert str(err.value) == f"invalid density matrix at parameter 10.0: {report}"


@pytest.mark.parametrize("kind", ["family1", "family2"])
def test_pure_kinds_run_without_eigvalsh(monkeypatch, kind):
    # a pure parent's norm check makes the 4x4 eigvalsh redundant, so the runner makes none, and every value stays
    configs = [
        RunConfig(kind=kind, params=THETA_GRID, mode=mode, shots_per_basis=1000, seed=7, epsilon_prep=epsilon)
        for mode in ("analytic", "sampled") for epsilon in (0.0, 0.05)
    ]
    expected = [run_experiment(cfg) for cfg in configs]

    def eigvalsh(a, UPLO="L"):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for cfg, rows in zip(configs, expected):
        assert run_experiment(cfg) == rows


def test_werner_run_checks_its_stack_by_eigvalsh(monkeypatch):
    # a matrix factory's stack keeps density_defects, whose spectra feed bound_qi
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, UPLO="L": calls.append(a.shape) or eigvalsh(a, UPLO))
    run_experiment(RunConfig(kind="werner", params=(0.25, 0.5, 0.75), epsilon_prep=0.05))
    assert calls == [(3, 4, 4), (3, 4, 4)]  # density_defects, then qi_bound's dephased stack


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_bound_qi_is_qi_relative_entropy_bit_for_bit(epsilon):
    rows = harness.run_experiment(RunConfig(kind="werner", params=parse_grid("0:1:0.001"), epsilon_prep=epsilon))
    assert len(rows) == 1001
    for row in rows:
        rho = oracles.depolarize(states.make_werner(row.param), epsilon)
        assert row.bound_qi == coherence.qi_relative_entropy(rho), row.param


def test_harness_imports_nothing_from_coherence():
    tree = ast.parse(Path(harness.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "coherence" and "coherence" not in [a.name for a in node.names]
        if isinstance(node, ast.Import):
            assert all("coherence" not in a.name for a in node.names)


def test_traced_layers_name_functions_that_exist():
    # perfbench/layers.py wraps cohdist.<module>.<fn> in traced runs only, so a name deleted here would fail only there
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "layers.py").read_text())
    layers = next(ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "LAYERS")
    assert layers
    for module, fn in layers:
        assert hasattr(importlib.import_module(f"cohdist.{module}"), fn), f"cohdist.{module}.{fn}"


def test_benchmark_reads_only_cohdist_names_that_exist():
    # perfbench's runtime files read cohdist.<module>.<name> as attributes of the imported modules; its test_*.py are
    # left out, as their stale names are a known red of their own
    modules = ("harness", "coherence", "protocol", "qcore", "states", "tomography")
    reads = set()
    for name in ("layers.py", "workloads.py", "run.py"):
        tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / name).read_text())
        reads |= {
            (n.value.id, n.attr)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
        }
    assert len(reads) >= 10
    missing = [f"cohdist.{m}.{a}" for m, a in sorted(reads) if not hasattr(importlib.import_module(f"cohdist.{m}"), a)]
    assert not missing


@pytest.mark.parametrize("table_id", [0, 4])
def test_unknown_fixture_tables_raise_one_value_error(table_id):
    for call in (fixture_run_config, lambda t: compare_fixtures(t, [])):
        with pytest.raises(ValueError, match="table_id must be 1, 2 or 3"):
            call(table_id)
