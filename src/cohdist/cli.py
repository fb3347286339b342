"""Command-line interface: theory-curve regeneration, the sampled tomography
pipeline, fixture scoring, and a tomography demo."""

import errno
import functools
import json
import os
import sys

import click

from . import qcore, tomography
from .harness import (
    ALICE_BLOCH,
    VERSION,
    RunConfig,
    compare_fixtures,
    dump_json,
    emit_csv,
    emit_json,
    fixture_run_config,
    parse_grid,
    run_chunk,
    run_experiment,
    spaced,
)
from .tomography import BASES, SEED_LIMIT, SHOTS_MAX, TomographyRecord

_RUNS = {  # run command: (KINDS key, default --grid, help)
    "pure1": ("family1", "0:45:2.5", "First pure family: cos(2t)|HH> + sin(2t)|VV>."),
    "pure2": ("family2", "0:45:2.5", "Second pure family (Bob marginal diagonal in the x basis)."),
    "werner": ("werner", "0.05:0.95:0.05", "Werner family: p|S><S| + (1-p) I/4."),
}
_SHOTS = click.IntRange(1, SHOTS_MAX)
_OUT_OPTION = click.option("--out", default=None, help="Output path (default: stdout).")
_SEED_OPTION = click.option("--seed", type=click.IntRange(0, SEED_LIMIT - 1), default=42, show_default=True,
                            help="Run seed, an integer in [0, 2^64); each seed gives its own bit-identical output.")


def _run_options(f):
    for opt in reversed(
        [
            click.option("--grid", default=None, help="Parameter grid as start:stop:step (inclusive)."),
            click.option("--points", default=None, help="Explicit comma-separated parameter list."),
            click.option("--mode", type=click.Choice(["analytic", "sampled"]), default="analytic", show_default=True),
            click.option("--shots", type=_SHOTS, default=100_000, show_default=True, help="Shots per tomography basis."),
            _SEED_OPTION,
            click.option("--epsilon-prep", type=float, default=0.0, show_default=True, help=(
                "Depolarizing preparation imperfection. Above 0, cd_after_theory is the value in the ideal parent's"
                " basis, not necessarily the maximum over Alice's bases.")),
            click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True),
            _OUT_OPTION,
        ]
    ):
        f = opt(f)
    return f


def _resolve_params(default_grid, grid, points):
    if grid is not None and points is not None:
        raise click.UsageError("use either --grid or --points, not both")
    try:
        if points is not None:
            return spaced(points.split(","), f"--points {points!r}")
        return parse_grid(default_grid if grid is None else grid)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _check_out(out: str | None):
    """A usage error, before any work, if open(out, "w") would fail; creates and truncates nothing."""
    if out is None:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(out):
        err = errno.EISDIR
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise click.UsageError(f"cannot write --out {out!r}: {os.strerror(err)}")


def _write(text: str, out: str | None):
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}")


def _run_family(kind, default_grid, grid, points, mode, shots, seed, epsilon_prep, fmt, out):
    _check_out(out)
    params = _resolve_params(default_grid, grid, points)
    try:
        config = RunConfig(kind, params, mode, shots_per_basis=shots, seed=seed, epsilon_prep=epsilon_prep)
        rows = run_experiment(config)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write(emit_csv(rows, kind) if fmt == "csv" else emit_json(config, rows), out)


@click.group()
@click.version_option(version=VERSION)
def main():
    """Assisted coherence-distillation simulator for two-qubit states."""


for _name, (_kind, _grid, _help) in _RUNS.items():  # name and help are given, so neither comes from the partial
    main.command(_name, help=_help)(_run_options(functools.partial(_run_family, _kind, _grid)))


@main.command("fixtures")
@click.option("--table", type=click.Choice(["1", "2", "3"]), required=True)
@click.option("--tolerance", type=float, default=0.10, show_default=True, help="Max allowed |fixture - theory| in bits.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_OUT_OPTION
def fixtures(table, tolerance, fmt, out):
    """Score a bundled reference table against regenerated theory.

    Exits 0 if the maximum deviation is within --tolerance, 1 otherwise.
    """
    table_id = int(table)
    if not 0.0 <= tolerance < float("inf"):  # also false for nan
        raise click.UsageError(f"tolerance must be finite and nonnegative, got {tolerance}")
    _check_out(out)
    config = fixture_run_config(table_id)
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
@_SEED_OPTION
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@_OUT_OPTION
def tomo_demo(family, theta, shots, seed, fmt, out):
    """Tomograph Bob's conditional states for one pure-family setting: the records t = 1, 2 of
    `pure1|pure2 --points THETA --mode sampled`, whose cd_after_sim is the sum of prob * cr_mle.
    Its JSON config is that run's RunConfig."""
    _check_out(out)
    try:
        config = RunConfig(f"family{family}", (theta,), mode="sampled", shots_per_basis=shots, seed=seed)
        p, blochs, c_true, c_sim, _, (_, _, streams, plus, mle, steps) = run_chunk(config, 0)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    lin = tomography._linear(plus, shots)
    results = []
    for t, label in ((1, "+"), (2, "-")):  # p = 1/2 along y, so the sampled records are t = 0, 1, 2 of the one point
        record = TomographyRecord(shots, streams[t], {b: (k, shots - k) for b, k in zip(BASES, plus[t].tolist())})
        true_state = qcore.bloch_state(blochs[t, 0])
        results.append({
            "label": label,
            "prob": float(p[t - 1, 0]),
            "record": json.loads(record.to_json()),
            "fidelity_linear": qcore.fidelity(qcore.bloch_state(lin[t]), true_state),
            "fidelity_mle": qcore.fidelity(qcore.bloch_state(mle[t]), true_state),
            "cr_true": float(c_true[t, 0]),
            "cr_mle": float(c_sim[t, 0]),
            "mle_iterations": int(steps[t]),
            "mle_converged": True,  # the MLE raises rather than return an unconverged estimate
        })
    if fmt == "json":
        _write(dump_json(config=vars(config), basis_bloch=ALICE_BLOCH.tolist(), outcomes=results), out)
    else:
        rows = ([f"{v:.6g}" if isinstance(v, float) else str(v) for k, v in r.items() if k != "record"] for r in results)
        lines = ["outcome,prob,fidelity_linear,fidelity_mle,cr_true,cr_mle,mle_iterations,mle_converged", *map(",".join, rows)]
        _write("\n".join(lines) + "\n", out)


if __name__ == "__main__":
    main()
