#!/usr/bin/env python3
"""Build and run the Pivot benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

The first form builds `perfbench/` (a cargo package of its own, path
dependencies on the repository's crates) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload and relays its output: the
last line of standard output is the result object. The second form runs
every workload of BENCHMARK.json untraced and prints each end-to-end metric
with its unit, sample count, the attempted and failed operations, and the
correctness verdict. Full run records (metadata, samples, failures) land
in `.bench_out/`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A single workload must finish within the 180 s contract; the run itself
# gets what the build did not use.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark; return the executable's path or exit non-zero."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        sys.exit(1)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(exe):
        log(f"perfbench: build produced no {exe}")
        sys.exit(1)
    return exe


def capture(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def commit_sha():
    # Only this checkout's own repository counts, not one around it.
    top = capture(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        sha = capture(["git", "-C", ROOT, "rev-parse", "HEAD"])
        if sha:
            return sha
    return os.environ.get("PERFBENCH_COMMIT", "unknown")


def run_one(exe, workload, seed, seconds, trace, meta):
    """Run one workload; return (exit code, stdout text)."""
    cmd = [
        exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out-dir", OUT_DIR,
        "--commit", meta["commit"], "--rustc", meta["rustc"],
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    return done.returncode, done.stdout


def run_all(exe, seed, seconds, meta):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    status = 0
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        log(f"== {name}")
        code, out = run_one(exe, name, seed, seconds, 0, meta)
        if code != 0 or not out.strip():
            status = 1
            rows.append((name, None, None))
            continue
        result = json.loads(out.strip().splitlines()[-1])
        record_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace0.json")
        with open(record_path) as f:
            record = json.load(f)
        if not result["correct"]:
            status = 1
        rows.append((name, result, record))
    print(f"commit {meta['commit']}  rustc {meta['rustc']}  seed {seed}  seconds {seconds}")
    print(f"{'workload':<20} {'metric':<24} {'value':>14} {'unit':<6} {'n':>6}")
    for name, result, record in rows:
        if result is None:
            print(f"{name:<20} FAILED TO RUN")
            continue
        for metric, v in result["metrics"].items():
            n = record["metrics"][metric]["samples"]
            print(f"{name:<20} {metric:<24} {v['value']:>14.6g} {v['unit']:<6} {n:>6}")
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name:<20} attempted={result['attempted']} failed={result['failed']} {verdict}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    meta = {"commit": commit_sha(), "rustc": capture(["rustc", "--version"]) or "unknown"}
    if args.workload == "all":
        sys.exit(run_all(exe, args.seed, args.seconds, meta))
    code, out = run_one(exe, args.workload, args.seed, args.seconds, args.trace, meta)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
