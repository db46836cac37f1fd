#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <groupby|ysb|join|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which pulls in the engine from the repository root)
into .bench_build/perfbench on first use, runs one measurement and
prints the binary's stamp line, its notes and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.
With --trace 1 the span log is written to
.bench_build/perfbench/traces/<workload>-seed<n>.json.

Exits non-zero, printing no result, when the build fails; exits
non-zero with correct=false when an output check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("groupby", "ysb", "join", "fleet")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in steps:
            try:
                res = subprocess.run(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True, timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step {cmd[:2]} failed: {e}")
                return False
            if res.returncode != 0:
                sys.stderr.write(res.stdout[-4000:])
                log(f"build step {' '.join(cmd[:2])} exited "
                    f"{res.returncode}")
                return False
    return os.path.exists(BINARY)


def source_digest():
    """sha256 over the engine and benchmark sources (path + content)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    trace = args.trace == "1"

    if not build():
        log("benchmark build failed; no result")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; no result")
        return 1

    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = (sorted(result) == ["attempted", "correct", "failed", "metrics"]
              and {k: v["unit"] for k, v in result["metrics"].items()}
              == expected_metrics(trace))
    except (ValueError, KeyError, TypeError, AttributeError):
        ok = False
    if not ok:
        sys.stderr.write(res.stdout)
        log(f"benchmark exited {res.returncode} without a well-formed "
            "result line; no result")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    if res.returncode != 0:
        log(f"output checks failed (exit {res.returncode})")
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
