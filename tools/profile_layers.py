"""Per-function profile of a benchmark workload's own tasks, for this checkout or for two side by side.

    python3 tools/profile_layers.py --workload W --seed N --rounds R
    python3 tools/profile_layers.py --workload W --seed N --rounds R --parent DIR --change DIR
    python3 tools/profile_layers.py --workload W --seed N --rounds R --mle [--parent DIR --change DIR]

For each checkout one subprocess puts that checkout's perfbench/ and src/ first on sys.path and builds the
workload with perfbench/run.py's build_workload, as a benchmark run does.  It runs round 0's tasks once as a
warm-up, builds the task lists of rounds 1 to R, then runs those tasks under cProfile.  It prints the calls,
self ms and cumulative ms of every cohdist function that ran (private kernels included; a nested function, lambda
or comprehension is named in the function around it) and of numpy.linalg.eigvalsh, largest cumulative time first,
under the profiled time of all the tasks.  With --parent and --change it prints both sides of each row and the change's
difference in cumulative ms.

--mle measures the lockstep MLE instead.  The subprocess runs the tasks of rounds 1 to R once, keeping every stack
of "+" counts that they hand to tomography._mle, then times _mle on those stacks in a loop (best of MLE_LOOPS
loops, after one warm-up loop) and counts its _axis_roots calls in one more.  It prints the stacks, their rows and
boundary rows (the rows with a root step), the boundary rows that leave the unguarded steps for the bracketed search
("-" for an estimator without them, before mle-newton-v3), the _axis_roots calls, root steps per boundary row, and µs
per stack and per boundary row; with --parent and --change both sides, whose calls and steps agree when the two
estimators take the same steps.  The times include the stacks of interior rows only, which return before the root search.

The profile's times are cProfile's and include its per-call overhead: compare two checkouts
with it, not a profile with a benchmark.  Each side runs once, one after the other, so the call counts are exact
but a few ms of time can be the host's: raise --rounds, or run again, before reading a small difference.  It writes
no file.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MLE_LOOPS = 20  # --mle: timed loops over the stacks, the best one taken


def layer_name(code, package: Path) -> str | None:
    """module.qualname of a cohdist function's code object, "numpy.linalg.eigvalsh", or None for any other.

    A nested function, lambda or comprehension is named in its enclosing function, as harness.DeviationReport.to_csv.<genexpr>."""
    if isinstance(code, str):  # a built-in function
        return None
    path, qualname = Path(code.co_filename), getattr(code, "co_qualname", code.co_name).replace(".<locals>", "")
    if package in path.parents:
        return ".".join(path.relative_to(package).with_suffix("").parts) + "." + qualname
    if qualname == "eigvalsh" and path.parent.name == "linalg" and "numpy" in path.parts:
        return "numpy.linalg.eigvalsh"
    return None


def load(checkout: Path, workload: str, seed: int, rounds: int) -> list:
    """The tasks of rounds 1 to R of the checkout's workload, with its cohdist imported and round 0 run once."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(checkout / "perfbench"))
    import run  # perfbench/run.py: pins BLAS to one thread before numpy is imported

    run.use_checkout_source()
    built, first = run.build_workload(workload, seed)
    for task in first:  # warm-up
        task.run()
    return [task for r in range(1, rounds + 1) for task in built.round(r)]


def emit(checkout: Path, workload: str, seed: int, rounds: int) -> None:
    """Print, as one JSON object, the task count, the profiled ms and {name: [calls, self ms, cumulative ms]}."""
    import cProfile

    tasks = load(checkout, workload, seed, rounds)
    import cohdist

    package = Path(cohdist.__file__).resolve().parent
    profiler = cProfile.Profile()
    profiler.enable()
    for task in tasks:
        task.run()
    profiler.disable()
    entries, rows = profiler.getstats(), {}
    for entry in entries:  # times in seconds; two comprehensions of one function share its row
        name = layer_name(entry.code, package)
        if name is not None:
            calls, self_ms, cum_ms = rows.get(name, (0, 0.0, 0.0))
            rows[name] = (calls + entry.callcount, self_ms + entry.inlinetime * 1e3, cum_ms + entry.totaltime * 1e3)
    total_ms = sum(entry.inlinetime for entry in entries) * 1e3
    json.dump({"tasks": len(tasks), "total_ms": total_ms, "rows": rows}, sys.stdout)


def emit_mle(checkout: Path, workload: str, seed: int, rounds: int) -> None:
    """Print, as one JSON object, the stack, row, boundary-row, _axis_roots-call and root-step counts of the _mle calls
    of rounds 1 to R, and the best time in ms of one loop of _mle over those stacks."""
    import time

    tasks = load(checkout, workload, seed, rounds)
    import numpy as np
    from cohdist import tomography

    mle, axis_roots, stacks, calls = tomography._mle, tomography._axis_roots, [], [0]

    def keep(plus, shots):
        stacks.append((plus.copy(), shots))
        return mle(plus, shots)

    tomography._mle = keep
    for task in tasks:
        task.run()
    tomography._mle = mle
    best = float("inf")
    for i in range(MLE_LOOPS + 1):  # loop 0 warms up
        start = time.perf_counter()
        for plus, shots in stacks:
            mle(plus, shots)
        best = min(best, time.perf_counter() - start) if i else best

    def count(*args):
        calls[0] += 1
        return axis_roots(*args)

    tomography._axis_roots = count
    steps = np.concatenate([mle(plus, shots)[1] for plus, shots in stacks] or [np.zeros(0, dtype=np.int64)])
    tomography._axis_roots = axis_roots
    fast = getattr(tomography, "_FAST_STEPS", None)  # None before mle-newton-v3, which has no fast path
    json.dump({"tasks": len(tasks), "stacks": len(stacks), "rows": int(steps.size), "boundary_rows": int(np.count_nonzero(steps)),
               "fallback_rows": None if fast is None else int(np.count_nonzero(steps > fast + 1)),
               "axis_roots_calls": calls[0], "root_steps": int(steps.sum()), "best_ms": best * 1e3}, sys.stdout)


def mle_rows(side: dict) -> list[tuple[str, str]]:
    """(label, value) lines of one side of --mle."""
    boundary = side["boundary_rows"]
    return [
        ("stacks", f"{side['stacks']}"),
        ("rows", f"{side['rows']}"),
        ("boundary rows", f"{boundary}"),
        ("rows off the fast path", "-" if side["fallback_rows"] is None else f"{side['fallback_rows']}"),
        ("_axis_roots calls", f"{side['axis_roots_calls']}"),
        ("root steps per boundary row", f"{side['root_steps'] / boundary:.3f}" if boundary else "-"),
        ("µs per stack", f"{side['best_ms'] * 1e3 / side['stacks']:.2f}" if side["stacks"] else "-"),
        ("µs per boundary row", f"{side['best_ms'] * 1e3 / boundary:.2f}" if boundary else "-"),
    ]


def profile(checkout: Path, args) -> dict:
    if not (checkout / "perfbench" / "run.py").is_file():
        sys.exit(f"{checkout} is not a cohdist checkout: it has no perfbench/run.py")
    cmd = [sys.executable, __file__, "--emit", str(checkout.resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(args.rounds)] + ["--mle"] * args.mle
    result = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if result.returncode:
        sys.exit(f"profiling {checkout} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--mle", action="store_true", help="time the lockstep MLE on the workload's own stacks")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)  # the subprocess: profile this checkout
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.emit:
        if args.mle:
            emit_mle(args.emit, args.workload, args.seed, args.rounds)
        else:
            emit(args.emit, args.workload, args.seed, args.rounds)
        return 0
    if (args.parent is None) != (args.change is None):
        parser.error("--parent and --change go together")
    title = f"{args.workload}, seed {args.seed}, rounds 1-{args.rounds}"
    if args.mle:
        sides = [profile(ROOT, args)] if args.parent is None else [profile(args.parent, args), profile(args.change, args)]
        print(f"{title}: _mle on the stacks of {sides[0]['tasks']} tasks, best of {MLE_LOOPS} loops"
              + ("" if len(sides) == 1 else " (parent, change)"))
        for label, *values in zip(*map(mle_rows, sides)):
            print(f"{label[0]:<30}" + "".join(f" {v:>12}" for _, v in (label, *values)))
        return 0
    if args.parent is None:
        one = profile(ROOT, args)
        print(f"{title}: {one['tasks']} tasks, {one['total_ms']:.1f} ms profiled")
        print(f"{'function':<44} {'calls':>8} {'self ms':>10} {'cum ms':>10}")
        for name, (calls, self_ms, cum_ms) in sorted(one["rows"].items(), key=lambda item: -item[1][2]):
            print(f"{name:<44} {calls:>8} {self_ms:>10.2f} {cum_ms:>10.2f}")
        return 0
    parent, change = profile(args.parent, args), profile(args.change, args)
    print(f"{title}: {parent['tasks']} tasks, {parent['total_ms']:.1f} ms profiled in the parent, "
          f"{change['total_ms']:.1f} ms in the change")
    print(f"{'function':<44} {'calls':>17} {'self ms':>21} {'cum ms':>21} {'cum change':>10}")
    zero = (0, 0.0, 0.0)
    names = sorted(set(parent["rows"]) | set(change["rows"]),
                   key=lambda n: -max(parent["rows"].get(n, zero)[2], change["rows"].get(n, zero)[2]))
    for name in names:
        (pc, ps, pt), (cc, cs, ct) = parent["rows"].get(name, zero), change["rows"].get(name, zero)
        print(f"{name:<44} {pc:>8} {cc:>8} {ps:>10.2f} {cs:>10.2f} {pt:>10.2f} {ct:>10.2f} {ct - pt:>+10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
