"""The cohdist functions the traced run wraps, and the per-layer metrics.

Every wrapped public function `<module>.<fn>` reports `.calls`, an exact
count, and `.self_ms`, its span time minus the time its wrapped callees
cover.  Solver and sampler detail comes from the spans' attributes.
"""

import importlib
import statistics

import numpy as np

from spans import Recorder

LAYERS = (
    ("qcore", "ensure_density"),
    ("qcore", "von_neumann_entropy"),
    ("coherence", "rel_entropy_coherence"),
    ("coherence", "qi_relative_entropy"),
    ("coherence", "coa_numeric"),
    ("protocol", "alice_measure"),
    ("protocol", "average_assisted_coherence"),
    ("protocol", "optimal_basis_pure"),
    ("protocol", "optimize_basis"),
    ("tomography", "simulate_counts"),
    ("tomography", "binomial_draw"),
    ("tomography", "reconstruct_mle"),
    ("harness", "run_experiment"),
    ("harness", "emit_csv"),
    ("harness", "parse_rows_csv"),
    ("harness", "compare_fixtures"),
)

# binomial_draw cost is keyed by the shot count the caller asked for
DRAW_SHOTS = {"n1e4": 10**4, "n1e5": 10**5, "n1e6": 10**6}


def _draw_attrs(args, kwargs, result):
    return {"n": args[0] if args else kwargs["n"]}


def _mle_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged, "blended": result.blended}


OBSERVE = {
    "tomography.binomial_draw": _draw_attrs,
    "tomography.reconstruct_mle": _mle_attrs,
}


def wrap_layers(recorder: Recorder) -> None:
    for mod_name, fn in LAYERS:
        module = importlib.import_module(f"cohdist.{mod_name}")
        name = f"{mod_name}.{fn}"
        recorder.wrap(module, fn, name, OBSERVE.get(name))


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    """(value, unit) for every per-layer metric the recorder can give."""
    name_id = np.frombuffer(recorder.name_id, dtype=np.int16)
    self_ns = recorder.self_times_ns()
    start = np.frombuffer(recorder.start, dtype=np.int64)
    end = np.frombuffer(recorder.end, dtype=np.int64)

    def spans_of(key: str) -> np.ndarray:
        if key not in recorder.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(name_id == recorder.names.index(key))

    out: dict[str, tuple[float, str]] = {}
    for mod_name, fn in LAYERS:
        key = f"{mod_name}.{fn}"
        idx = spans_of(key)
        out[f"{key}.calls"] = (int(idx.size), "count")
        out[f"{key}.self_ms"] = (float(self_ns[idx].sum()) / 1e6, "ms")

    mle = [recorder.attrs[i] for i in spans_of("tomography.reconstruct_mle").tolist()]
    out["tomography.reconstruct_mle.iterations"] = (sum(a["iterations"] for a in mle), "count")
    # the ratio's base is reconstruct_mle.calls; it reads 0 when there were no calls
    converged = sum(a["converged"] for a in mle)
    out["tomography.reconstruct_mle.converged_ratio"] = (converged / len(mle) if mle else 0.0, "ratio")
    out["tomography.reconstruct_mle.blended"] = (sum(a["blended"] for a in mle), "count")

    draws = spans_of("tomography.binomial_draw").tolist()
    for label, shots in DRAW_SHOTS.items():
        durations = [int(end[i] - start[i]) for i in draws if recorder.attrs[i]["n"] == shots]
        # mean over every draw at this shot count; it reads 0 when none ran
        us = statistics.fmean(durations) / 1e3 if durations else 0.0
        out[f"tomography.binomial_draw.us_per_call.{label}"] = (us, "us")
    return out
