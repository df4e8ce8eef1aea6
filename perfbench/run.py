#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness (perfbench/CMakeLists.txt) is
configured and built in Release under .bench_build/perfbench on first use;
later runs only re-check the build. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
With --trace 1 the spans of the first traced pass are written to
.bench_build/perfbench/traces/<workload>.csv.

--tiny shrinks every workload to a few small graphs (used by the smoke test,
test_perfbench.py); its numbers are not benchmark results.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
# The harness itself stops well inside this; it only guards against a hang.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "sim" / "session.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def source_meta():
    """Git revision of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown", "unknown"
    def git(*args):
        r = subprocess.run(["git", "-C", str(ROOT), *args],
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    sha = git("rev-parse", "HEAD") or "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("1" if status else "0")
    return sha, dirty


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build()
    sha, dirty = source_meta()
    print(f"meta git_sha={sha} dirty={dirty} nproc={os.cpu_count()} "
          f"omp_num_threads=1 build=Release", flush=True)

    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans", str(traces / f"{args.workload}.csv")]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"harness exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("harness printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        fail(f"metric names {sorted(result['metrics'])} differ from "
             f"BENCHMARK.json {sorted(expected)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
