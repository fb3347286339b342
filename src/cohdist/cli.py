"""Command-line interface: theory-curve regeneration, the sampled tomography
pipeline, fixture scoring, and a tomography demo."""

import json
import sys

import click

from . import __version__, qcore, states
from .coherence import rel_entropy_coherence
from .harness import (
    RunConfig,
    compare_fixtures,
    emit_csv,
    emit_json,
    fixture_run_config,
    parse_grid,
    run_experiment,
)
from .protocol import alice_measure, optimal_basis_pure
from .tomography import (
    ESTIMATOR_ID, PRNG_ID, SEED_LIMIT, SHOTS_MAX, derive_stream, reconstruct_linear, reconstruct_mle, simulate_counts
)

_DEFAULT_GRIDS = {"family1": "0:45:2.5", "family2": "0:45:2.5", "werner": "0.05:0.95:0.05"}
_SHOTS, _SEED = click.IntRange(1, SHOTS_MAX), click.IntRange(0, SEED_LIMIT - 1)
_SEED_HELP = "Run seed, an integer in [0, 2^64); each seed gives its own bit-identical output."


def _run_options(f):
    for opt in reversed(
        [
            click.option("--grid", default=None, help="Parameter grid as start:stop:step (inclusive)."),
            click.option("--points", default=None, help="Explicit comma-separated parameter list."),
            click.option("--mode", type=click.Choice(["analytic", "sampled"]), default="analytic", show_default=True),
            click.option("--shots", type=_SHOTS, default=100_000, show_default=True, help="Shots per tomography basis."),
            click.option("--seed", type=_SEED, default=42, show_default=True, help=_SEED_HELP),
            click.option("--epsilon-prep", type=float, default=0.0, show_default=True, help=(
                "Depolarizing preparation imperfection. Above 0, cd_after_theory is the value in the ideal parent's"
                " basis, not necessarily the maximum over Alice's bases.")),
            click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True),
            click.option("--out", default=None, help="Output path (default: stdout)."),
        ]
    ):
        f = opt(f)
    return f


def _resolve_params(kind, grid, points):
    if grid is not None and points is not None:
        raise click.UsageError("use either --grid or --points, not both")
    try:
        if points is not None:
            return tuple(float(x) for x in points.split(","))
        return parse_grid(grid if grid is not None else _DEFAULT_GRIDS[kind])
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write(text: str, out: str | None):
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _run_family(kind, grid, points, mode, shots, seed, epsilon_prep, fmt, out):
    params = _resolve_params(kind, grid, points)
    try:
        config = RunConfig(
            kind=kind,
            params=params,
            mode=mode,
            shots_per_basis=shots,
            seed=seed,
            epsilon_prep=epsilon_prep,
            fmt=fmt,
            out=out,
        )
        rows = run_experiment(config)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write(emit_csv(rows, kind) if fmt == "csv" else emit_json(config, rows), out)


@click.group()
@click.version_option(version=__version__)
def main():
    """Assisted coherence-distillation simulator for two-qubit states."""


@main.command("pure1")
@_run_options
def pure1(**kwargs):
    """First pure family: cos(2t)|HH> + sin(2t)|VV>."""
    _run_family("family1", **kwargs)


@main.command("pure2")
@_run_options
def pure2(**kwargs):
    """Second pure family (Bob marginal diagonal in the x basis)."""
    _run_family("family2", **kwargs)


@main.command("werner")
@_run_options
def werner(**kwargs):
    """Werner family: p|S><S| + (1-p) I/4."""
    _run_family("werner", **kwargs)


@main.command("fixtures")
@click.option("--table", type=click.Choice(["1", "2", "3"]), required=True)
@click.option("--tolerance", type=float, default=0.10, show_default=True, help="Max allowed |fixture - theory| in bits.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", default=None, help="Output path (default: stdout).")
def fixtures(table, tolerance, fmt, out):
    """Score a bundled reference table against regenerated theory.

    Exits 0 if the maximum deviation is within --tolerance, 1 otherwise.
    """
    table_id = int(table)
    if not 0.0 <= tolerance < float("inf"):  # also false for nan
        raise click.UsageError(f"tolerance must be finite and nonnegative, got {tolerance}")
    config = fixture_run_config(table_id, fmt=fmt, out=out)
    report = compare_fixtures(table_id, run_experiment(config))
    _write(report.to_csv() if fmt == "csv" else report.to_json(), out)
    ok = report.max_deviation <= tolerance
    click.echo(
        f"table {table_id}: max deviation {report.max_deviation:.6g}, "
        f"mean {report.mean_deviation:.6g}, tolerance {tolerance:.6g} -> {'PASS' if ok else 'FAIL'}",
        err=True,
    )
    sys.exit(0 if ok else 1)


@main.command("tomo-demo")
@click.option("--family", type=click.Choice(["1", "2"]), default="1", show_default=True)
@click.option("--theta", type=float, default=22.5, show_default=True, help="Preparation angle in degrees.")
@click.option("--shots", type=_SHOTS, default=100_000, show_default=True)
@click.option("--seed", type=_SEED, default=42, show_default=True, help=_SEED_HELP)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--out", default=None, help="Output path (default: stdout).")
def tomo_demo(family, theta, shots, seed, fmt, out):
    """Tomograph Bob's conditional states for one pure-family setting."""
    try:
        psi = states.make_pure(int(family), theta)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    basis = optimal_basis_pure(psi)
    outcomes = alice_measure(qcore.projector(psi), basis)
    results = []
    for t, outcome in enumerate(outcomes, start=1):
        record = simulate_counts(outcome.bob_state, shots, derive_stream(seed, 0, t))
        lin = reconstruct_linear(record)
        mle = reconstruct_mle(record)
        results.append(
            {
                "label": outcome.label,
                "prob": outcome.prob,
                "record": json.loads(record.to_json()),
                "fidelity_linear": qcore.fidelity(lin.state, outcome.bob_state),
                "fidelity_mle": qcore.fidelity(mle.state, outcome.bob_state),
                "cr_true": rel_entropy_coherence(outcome.bob_state).c_r,
                "cr_mle": rel_entropy_coherence(mle.state).c_r,
                "mle_iterations": mle.iterations,
                "mle_converged": mle.converged,
            }
        )
    if fmt == "json":
        payload = {
            "config": {"family": int(family), "theta_deg": theta, "shots": shots, "seed": seed},
            "basis_bloch": list(basis.bloch),
            "outcomes": results,
            "meta": {"prng": PRNG_ID, "estimator": ESTIMATOR_ID, "version": __version__},
        }
        _write(json.dumps(payload, indent=2) + "\n", out)
    else:
        lines = ["outcome,prob,fidelity_linear,fidelity_mle,cr_true,cr_mle,mle_iterations,mle_converged"]
        for r in results:
            lines.append(
                f"{r['label']},{r['prob']:.6g},{r['fidelity_linear']:.6g},{r['fidelity_mle']:.6g},"
                f"{r['cr_true']:.6g},{r['cr_mle']:.6g},{r['mle_iterations']},{r['mle_converged']}"
            )
        _write("\n".join(lines) + "\n", out)


if __name__ == "__main__":
    main()
