"""cohdist benchmark: one closed-loop client per workload, from one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cohdist is imported from its `src/`
and nowhere else.  BLAS is pinned to one thread.  The workloads and their
output checks are in workloads.py.

--trace 0 runs the workload's rounds until the round end nearest to S
seconds, checks every output and reports the end-to-end metrics.  Times are
in reference seconds: each timed step is scaled by a speed probe run around
it, which takes out the shared host's changing speed (speed.py); the raw
times go to the result file.
  setup_s      median over fresh processes that import cohdist and
               cohdist.cli and build the task list, before and after the loop
  tasks_per_s  tasks done per second of task time
  task_p50_s   each task type's median latency, averaged over the types of
               a round (one task of each), so the figure does not jump
               between types of unequal cost from run to run
  peak_rss_mb  peak resident memory of the process

--trace 1 runs a fixed number of rounds, picked from S so that the run
takes about S seconds; its counts repeat exactly for one seed and S.  Every
task runs twice, plain and with every function in layers.LAYERS wrapped in
a span, alternating which goes first.  It reports the per-layer metrics,
the error_rate over both runs of every task and the ratio of traced to
plain task time, and writes the spans to perfbench/results/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; a
full record with the environment goes to perfbench/results/.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4  # before and again after the timed loop


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit 1 if it has none."""
    if not (SRC / "cohdist" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cohdist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cohdist

    if SRC not in Path(cohdist.__file__).resolve().parents:
        sys.exit(f"perfbench: imported cohdist from {cohdist.__file__}, not from {SRC}")


def build_workload(name: str, seed: int):
    import cohdist.cli  # noqa: F401  (set-up time covers the CLI's imports, click included)
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    first = workload.round(0)
    return workload, first


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes from spawn to a built task list, in
    seconds and in reference seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", name, "--seed", str(seed)]
    times = []
    probes = [speed.probe()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        probes.append(speed.probe())
    return times, speed.to_reference(times, probes)


@dataclass
class Record:
    label: str
    latency_s: float
    failure: str | None  # why the task failed, or None
    ref_s: float | None = None  # latency_s at the reference speed (speed.py)


def run_task(task, samples: list[float] | None = None) -> tuple[object, float, str | None]:
    """(output, latency_s, traceback or None)

    samples: the list speed.sampling() fills while the task runs; their
    time is left out of latency_s.
    """
    start = time.perf_counter()
    try:
        output, error = task.run(), None
    except Exception:
        output, error = None, traceback.format_exc(limit=4)
    end = time.perf_counter()
    sampled_s = sum(samples or ())
    return output, end - start - sampled_s, error


def verdict(task, output, error: str | None) -> str | None:
    if error is not None:
        return f"{task.label} raised: {error}"
    try:
        task.check(output)
    except Exception as exc:
        return f"{task.label} failed its check: {type(exc).__name__}: {exc}"
    return None


def closed_loop(rounds, until_s: float) -> tuple[list[Record], dict, float]:
    """Run tasks one at a time until the round end nearest to until_s.

    The speed kernel is sampled before the first task, during every task
    and after it; each task's latency is also scaled to the reference speed
    from those samples (speed.py).  Each round's outputs are checked, then
    dropped, when the round ends, so memory does not grow with the run;
    checking is not part of the returned wall time.  The run's first task
    runs once more at the end: the same seed must give the same output.
    """
    records: list[Record] = []
    probes = [speed.probe()]
    during = []
    first = None
    checking = 0.0
    t0 = time.perf_counter()
    for tasks in rounds:
        r0 = time.perf_counter()
        results = []
        for task in tasks:
            with speed.sampling() as samples:
                results.append((task, *run_task(task, samples)))
            during.append(samples)
            probes.append(speed.probe())
        round_s = time.perf_counter() - r0
        c0 = time.perf_counter()
        for task, output, latency, error in results:
            records.append(Record(task.label, latency, verdict(task, output, error)))
        if first is None:
            first = results[0][:2]
        checking += time.perf_counter() - c0
        if time.perf_counter() - t0 - checking + round_s / 2 >= until_s:
            break
    wall_s = time.perf_counter() - t0 - checking
    for rec, ref_s in zip(records, speed.to_reference([r.latency_s for r in records], probes, during)):
        rec.ref_s = ref_s
    task, output = first
    if records[0].failure is None and run_task(task)[0] != output:
        records[0].failure = f"{task.label}: the same seed gave different output"
    samples = {"probe_mean_s": [statistics.fmean(p) for p in probes], "during_task": [len(d) for d in during]}
    return records, samples, wall_s


def paired_runs(tasks, recorder) -> tuple[list[Record], list[Record]]:
    """Run every task twice, plain and traced, alternating which goes first.

    Both outputs are checked, and they must be equal: one seed, one output.
    """
    from layers import wrap_layers

    plain: list[Record] = []
    traced: list[Record] = []
    for i, task in enumerate(tasks):
        runs = {}
        for wrapped in (False, True) if i % 2 == 0 else (True, False):
            if wrapped:
                wrap_layers(recorder)
            try:
                runs[wrapped] = run_task(task)
            finally:
                if wrapped:
                    recorder.unwrap()
        for wrapped, (output, latency, error) in runs.items():
            failure = verdict(task, output, error)
            if failure is None and wrapped and output != runs[False][0]:
                failure = f"{task.label}: the traced run gave different output"
            if wrapped:
                traced.append(Record(f"{task.label} [traced]", latency, failure))
            else:
                plain.append(Record(task.label, latency, failure))
    return plain, traced


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cohdist").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure(args) -> tuple[dict, list[Record], dict]:
    """Run the workload; return (metrics, records, details)."""
    workload, first = build_workload(args.workload, args.seed)
    if args.trace == 0:
        rounds = itertools.chain([first], (workload.round(r) for r in itertools.count(1)))
        setup, setup_ref = measure_setup(args.workload, args.seed)
        records, samples, wall_s = closed_loop(rounds, until_s=args.seconds)
        after, after_ref = measure_setup(args.workload, args.seed)
        setup, setup_ref = setup + after, setup_ref + after_ref
        by_type: dict[str, list[float]] = {}
        for rec in records:
            by_type.setdefault(rec.label, []).append(rec.ref_s)
        # every round holds one task of each type, so the plain mean over
        # types weighs each type by its share of the workload's mix
        p50_s = statistics.fmean(statistics.median(v) for v in by_type.values())
        metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "tasks_per_s": (len(records) / sum(rec.ref_s for rec in records), "1/s"),
            "task_p50_s": (p50_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        details = {
            "setup_samples_s": setup,
            "setup_samples_ref_s": setup_ref,
            "wall_s": wall_s,
            "task_s": sum(rec.latency_s for rec in records),
            "speed_samples": samples,
            "task_p50_samples": {k: len(v) for k, v in by_type.items()},
        }
        return metrics, records, details

    from layers import layer_metrics
    from spans import Recorder

    n_rounds = max(1, round(args.seconds / (2 * workload.round_s)))
    tasks = first + [task for r in range(1, n_rounds) for task in workload.round(r)]
    recorder = Recorder()
    plain, traced = paired_runs(tasks, recorder)
    records = plain + traced
    plain_s = sum(r.latency_s for r in plain)
    traced_s = sum(r.latency_s for r in traced)
    metrics = layer_metrics(recorder)
    metrics["trace.task_ms"] = (traced_s * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["error_rate"] = (sum(r.failure is not None for r in records) / len(records), "ratio")
    RESULTS.mkdir(exist_ok=True)
    recorder.save(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")
    details = {"rounds": n_rounds, "plain_task_s": plain_s, "traced_task_s": traced_s, "spans": len(recorder)}
    return metrics, records, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.probe_setup:
        build_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    metrics, records, details = measure(args)
    env = environment(args)
    failures = [r.failure for r in records if r.failure is not None]
    latencies: dict[str, list[float]] = {}
    ref_latencies: dict[str, list[float]] = {}
    for rec in records:
        latencies.setdefault(rec.label, []).append(rec.latency_s)
        if rec.ref_s is not None:
            ref_latencies.setdefault(rec.label, []).append(rec.ref_s)
    record = {
        "environment": env,
        "details": details,
        "task_median_s": {k: statistics.median(v) for k, v in latencies.items()},
        "task_latencies_s": latencies,
        "task_latencies_ref_s": ref_latencies,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for message in failures:
        print(message, file=sys.stderr)
    print(json.dumps({"environment": env, "details": {k: v for k, v in details.items() if k != "speed_samples"}}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
