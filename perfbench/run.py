#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, a Release build of the eva2
library plus the benchmark binary) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed. The binary's
summary goes to standard output, ending with one JSON result line
whose metric names are checked against BENCHMARK.json. A traced run
(--trace 1) also writes its spans to
<build dir>/trace_<workload>_seed<N>.json (Chrome trace_event JSON).
Exits non-zero, without a result line, when the build fails, and
non-zero when the output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "eva2_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "eva2_perfbench")


def metric_names(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace_{args.workload}_seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: no result line (exit {done.returncode})")
    want = metric_names(args.trace)
    if set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ want)}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
