"""Basis-search values, convergence and time of two checkouts on the same states.

    python3 tools/search_sweep.py --parent DIR --change DIR [--repeat 5] [--rounds 3]

The states are built once, from the change's tests/: the four sets of tests/test_protocol.py::_search_gate_sets,
the 400 two-basin Bell-diagonal states of tests/sampling.py::two_basin_states with their closed-form optimum, and
300 states like the basis-search workload's (100 each of Hilbert-Schmidt random, Werner with p uniform in
[0.05, 0.95] and random pure, rng seed 11).  For each checkout one subprocess puts that checkout's src/ first on
sys.path and runs protocol._basis_search on every state: the gate sets at their own (grid_res, refine_iters), the
two-basin set and the workload-like states at that checkout's defaults (optimize_basis' signature).  Each
checkout runs --rounds times, the two alternating which runs first, and each set is timed as its best pass over
all of a checkout's runs (--repeat passes a run).  Prints, per set, the largest value rise and fall (change -
parent), the converged counts and the microseconds per search, and for the two-basin set how many searches fall
more than 1e-9 short of the closed form and by how much at most.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def build_states(change: Path) -> dict:
    """{name: (grid_res or None for the defaults, refine_iters or None, states, optimum or None)}."""
    sys.path[:0] = [str(change / "src"), str(change / "tests")]
    import test_protocol
    from sampling import random_density, random_pure_state, two_basin_states

    from cohdist import qcore, states

    sets = {name: (g, k, list(rhos), None) for name, (g, k, rhos) in test_protocol._search_gate_sets().items()}
    pairs = two_basin_states()
    sets["two_basin"] = (None, None, [rho for rho, _ in pairs], [best for _, best in pairs])
    rng, mix = np.random.default_rng(11), []
    for _ in range(100):
        mix += [random_density(rng, 4), states.make_werner(float(rng.uniform(0.05, 0.95)))]
        mix.append(qcore.projector(random_pure_state(rng, 4)))
    sets["workload_like"] = (None, None, mix, None)
    return sets


def emit(src: str, states_file: str, repeat: int) -> None:
    """Print, as JSON, {name: {"grid", "values", "converged", "us"}} of _basis_search with src first on sys.path."""
    sys.path.insert(0, src)
    import inspect

    from cohdist import protocol

    defaults = inspect.signature(protocol.optimize_basis).parameters
    data = np.load(states_file)
    plan = json.loads(str(data["plan"]))
    out = {}
    for name, (grid_res, refine_iters) in plan.items():
        grid_res = defaults["grid_res"].default if grid_res is None else grid_res
        refine_iters = defaults["refine_iters"].default if refine_iters is None else refine_iters
        rhos, best = list(data[name]), float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            results = [protocol._basis_search(rho, grid_res, refine_iters) for rho in rhos]
            best = min(best, time.perf_counter() - start)
        out[name] = {
            "grid": [grid_res, refine_iters],
            "values": [value for _, value, _, _ in results],
            "converged": sum(bool(ok) for _, _, _, ok in results),
            "us": best / len(rhos) * 1e6,
        }
    json.dump(out, sys.stdout)


def sweep(checkout: Path, states_file: Path, repeat: int) -> dict:
    cmd = [sys.executable, __file__, "--emit", str(checkout.resolve() / "src"), "--states", str(states_file), "--repeat", str(repeat)]
    return json.loads(subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--repeat", type=int, default=5, help="timed passes over each set per run (default 5)")
    parser.add_argument("--rounds", type=int, default=3, help="runs of each checkout, alternating which runs first (default 3)")
    parser.add_argument("--emit", help=argparse.SUPPRESS)  # the subprocess: run the searches against this src/
    parser.add_argument("--states", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit, args.states, args.repeat)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    sets = build_states(args.change.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        states_file = Path(tmp) / "states.npz"
        plan = {name: [g, k] for name, (g, k, _, _) in sets.items()}
        np.savez(states_file, plan=json.dumps(plan), **{name: np.stack(rhos) for name, (_, _, rhos, _) in sets.items()})
        runs = {"parent": [], "change": []}
        for i in range(args.rounds):  # alternate which side runs first; each set's time is its best over the rounds
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(sweep(getattr(args, side), states_file, args.repeat))
    parent, change = ({name: {**run[0][name], "us": min(r[name]["us"] for r in run)} for name in sets} for run in runs.values())
    print(f"{'set':14} {'states':>6} {'grid':>13} {'converged':>11} {'largest rise':>13} {'largest fall':>13} {'us/search':>15}")
    for name, (_, _, rhos, optimum) in sets.items():
        old, new = parent[name], change[name]
        diff = np.array(new["values"]) - np.array(old["values"])
        grids = "/".join(",".join(map(str, side["grid"])) for side in (old, new))
        print(f"{name:14} {len(rhos):6d} {grids:>13} {old['converged']:5d}/{new['converged']:<5d} {max(diff.max(), 0.0):13.3g} "
              f"{min(diff.min(), 0.0):13.3g} {old['us']:7.0f}/{new['us']:<7.0f}")
        if optimum is not None:
            for side, result in (("parent", old), ("change", new)):
                short = np.array(optimum) - np.array(result["values"])
                print(f"  {side}: {int((short > 1e-9).sum())} of {len(rhos)} more than 1e-9 short of the closed form, at most {short.max():.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
