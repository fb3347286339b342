"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 --seconds 25 --seed 1000 --out BENCH.json

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T` inside one checkout, so each side
uses its own perfbench/ and src/.  Pair i runs every workload on both sides with seed S + i, the parent
first on even pairs.  For every workload and end-to-end metric of BENCHMARK.json the output holds both
sides' values, their medians and quartiles, the change's wins (ties count for neither side), whether a
gain may be claimed (wins in at least nine tenths of the pairs and a median difference above the parent's
interquartile range) and whether the change stays within the metric's regression bound.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment, result) from the last two stdout lines of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(out[-2])["environment"], json.loads(out[-1])


def cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), None)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "parent_median": pm,
        "parent_quartiles": [p1, p3],
        "change_median": cm,
        "change_quartiles": [c1, c3],
        "change_over_parent": cm / pm if pm else None,
        "change_wins": wins,
        "gain_claim_met": wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1,
        "within_bound": sign * (cm - pm) >= -spec["bound"] * abs(pm),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all of BENCHMARK.json)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    values = {w: {s: {m["name"]: [] for m in bench["end_to_end"]} for s in sides} for w in workloads}
    failed = {w: {s: 0 for s in sides} for w in workloads}
    environments = {}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                env, result = run(sides[side], workload, args.seed + i, seconds)
                environments[side] = env
                failed[workload][side] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[workload][side][name].append(metric["value"])
                print(f"pair {i} {workload} {side}: " + json.dumps(result["metrics"]), file=sys.stderr, flush=True)
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T",
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "parent": {k: environments["parent"][k] for k in ("git_commit", "source_sha256")},
        "change": {k: environments["change"][k] for k in ("git_commit", "source_sha256")},
        "environment": {
            **{k: environments["change"][k] for k in ("nproc", "usable_cpus", "python", "numpy", "blas_threads")},
            "platform": platform.platform(),
            "cpu": cpu_model(),
        },
        "failed_tasks": failed,
        "workloads": {
            w: {
                m["name"]: summarize(m, values[w]["parent"][m["name"]], values[w]["change"][m["name"]])
                for m in bench["end_to_end"]
            }
            for w in workloads
        },
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
