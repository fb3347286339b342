"""Byte-for-byte comparison of the CLI of two checkouts.

    python3 tools/byte_sweep.py --parent DIR --change DIR

For each checkout one subprocess puts that checkout's src/ first on sys.path and runs a fixed list of CLI
invocations in process through click's CliRunner: every run command analytic and sampled (7, 10,000, 10,001, the
default 100,000 and 1e6 shots; 10,000 draws on the widest inversion window, 10,001 on the normal branch, and at
100,000 and epsilon 0 a third of the pure kinds' records take the boundary MLE) at epsilon 0 and 0.05 in CSV and
JSON, a 1,001-point JSON Werner grid, a 4,501-point sampled grid (more than one harness.RUN_CHUNK), every fixture
table and tomo-demo in both formats, tomo-demo at seeds 0 and 2^64 - 1 with 7 and 1e6 shots in both formats, tomo-demo
of both families at theta 0 and 45 (a unit Bloch axis, whose MLE is pinned) with 10,000 and 10,001 shots (the two
sampler paths) in both formats, every --help page, eleven usage errors (four of them parameters out of range, which
reach the run table's rows and the KINDS state factories, and two values that are not numbers) and --version.  Prints
each invocation whose exit code, stdout or stderr differs between the two checkouts, and exits 1 if any does.
Where both stdouts parse as JSON it says whether the two results differ only in that JSON's top-level "meta",
and the last line counts the differing invocations as "in meta only" and "otherwise": a version bump that
moves nothing else leaves --version as the one "otherwise".  Just before that line it prints the names that
leave or join cohdist.__all__ between the two checkouts, if any do.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def invocations() -> list[list[str]]:
    runs = []
    for command in ("pure1", "pure2", "werner"):
        for eps in ("0", "0.05"):
            for fmt in ("csv", "json"):
                tail = ["--epsilon-prep", eps, "--format", fmt]
                runs.append([command, *tail])
                runs += [[command, "--mode", "sampled", "--shots", shots, *tail] for shots in ("7", "10000", "10001", "1000000")]
                runs.append([command, "--mode", "sampled", *tail])  # the default shots
    runs.append(["werner", "--grid", "0:1:0.001", "--format", "json"])
    runs.append(["werner", "--grid", "0:0.9:0.0002", "--mode", "sampled", "--shots", "1000"])
    for fmt in ("csv", "json"):
        runs += [["fixtures", "--table", table, "--format", fmt] for table in ("1", "2", "3")]
        runs += [["tomo-demo", "--family", family, "--format", fmt] for family in ("1", "2")]
        runs += [["tomo-demo", "--seed", seed, "--shots", shots, "--format", fmt]
                 for seed in ("0", "18446744073709551615") for shots in ("7", "1000000")]
        runs += [["tomo-demo", "--family", family, "--theta", theta, "--shots", shots, "--format", fmt]
                 for family in ("1", "2") for theta in ("0", "45") for shots in ("10000", "10001")]
    runs += [[*command, "--help"] for command in ([], ["pure1"], ["pure2"], ["werner"], ["fixtures"], ["tomo-demo"])]
    runs += [
        ["pure1", "--grid", "0:45"],
        ["werner", "--grid", "0:1:0.1", "--points", "0.5"],
        ["pure2", "--shots", "0"],
        ["werner", "--points", "0.5", "--epsilon-prep", "2"],
        ["fixtures", "--table", "4"],
        ["tomo-demo", "--theta", "50"],
        ["tomo-demo", "--theta", "nan"],
        ["pure1", "--points", "50"],
        ["werner", "--grid", "0:2:0.5"],
        ["werner", "--grid", "a:1:0.1"],
        ["werner", "--points", "0.5,x"],
    ]
    runs.append(["--version"])
    return runs


def emit(src: str) -> None:
    """Print, as one JSON object, cohdist.__all__ and [args, exit code, exception, stdout, stderr] of every invocation
    with src first on sys.path."""
    sys.path.insert(0, src)
    from click.testing import CliRunner

    import cohdist
    from cohdist import cli

    results = []
    for args in invocations():
        result = CliRunner().invoke(cli.main, args)
        error = None if result.exception is None or isinstance(result.exception, SystemExit) else repr(result.exception)
        results.append([args, result.exit_code, error, result.stdout, result.stderr])
    json.dump({"all": sorted(cohdist.__all__), "runs": results}, sys.stdout)


def sweep(checkout: Path) -> dict:
    cmd = [sys.executable, __file__, "--emit", str(checkout.resolve() / "src")]
    return json.loads(subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout)


def meta_only(old: list, new: list) -> bool | None:
    """None unless both stdouts parse as JSON, else whether the two results differ only in stdout's top-level "meta"."""
    try:
        values = [json.loads(old[3]), json.loads(new[3])]
    except ValueError:
        return None
    for value in values:
        if isinstance(value, dict):
            value.pop("meta", None)
    same = json.dumps(values[0], sort_keys=True) == json.dumps(values[1], sort_keys=True)  # nan compares equal as text
    return same and old[1:3] + old[4:] == new[1:3] + new[4:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--emit", help=argparse.SUPPRESS)  # the subprocess: run the invocations against this src/
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    parent, change = sweep(args.parent), sweep(args.change)
    fields = ("exit code", "exception", "stdout", "stderr")
    differ = in_meta = 0
    for old, new in zip(parent["runs"], change["runs"], strict=True):
        changed = [name for name, a, b in zip(fields, old[1:], new[1:]) if a != b]
        if changed:
            differ += 1
            only = meta_only(old, new)
            in_meta += bool(only)
            note = {None: "", True: "; meta only", False: "; not only meta"}[only]
            print(f"differs ({', '.join(changed)}{note}): cohdist {' '.join(old[0])}")
    left, joined = set(parent["all"]) - set(change["all"]), set(change["all"]) - set(parent["all"])
    for verb, names in (("leave", left), ("join", joined)):
        if names:
            print(f"{verb} cohdist.__all__: {', '.join(sorted(names))}")
    print(f"{len(parent['runs'])} invocations, {differ} differ: {in_meta} in meta only, {differ - in_meta} otherwise")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
