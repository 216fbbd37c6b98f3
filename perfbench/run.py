#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the library and the driver from
source (Release, into .bench_build/), runs the driver's self-test, trains any
missing zoo model once (recorded in .bench_build/zoo/perfbench_zoo.json, never
inside a timed run), then runs the workload. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; run.py checks the names against that file.

Untraced runs set the workload up in SETUP_RUNS separate processes (the full
run included) and report the median set-up time and set-up memory, so a
one-off stall does not decide setup_s or peak_rss_mb.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "cmake")
ZOO_DIR = os.path.join(OUT_DIR, "zoo")
WORK_DIR = os.path.join(OUT_DIR, "work")
ZOO_RECORD = os.path.join(ZOO_DIR, "perfbench_zoo.json")
SETUP_RUNS = 3
BUILD_TIMEOUT_S = 780
ZOO_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


def call(cmd, timeout, env=None, capture=False):
    """Run cmd to completion; its output goes to stderr unless captured."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        die(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        die(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout if capture else ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "executor.h")):
        die("no library sources under src/: run from a repository checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        call([cmake, "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    call([cmake, "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)
    call([os.path.join(BUILD_DIR, "perfbench_selftest")], 120)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def driver_env():
    # Only the benchmark's own settings: an inherited SYSNOISE_TRACE or
    # SYSNOISE_BACKEND would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYSNOISE_")}
    env["SYSNOISE_CACHE_DIR"] = ZOO_DIR
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    return env


def last_json(text, what):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        die(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{what} did not end with a JSON line")


def prepare_zoo(driver, env):
    if os.path.isfile(ZOO_RECORD):
        return
    os.makedirs(ZOO_DIR, exist_ok=True)
    log("preparing the model zoo (trains whatever is missing)")
    record = last_json(call([driver, "--prepare-zoo"], ZOO_TIMEOUT_S, env,
                            capture=True), "zoo preparation")
    with open(ZOO_RECORD, "w") as f:
        json.dump(record, f)
        f.write("\n")
    log(f"zoo ready, trained: {record.get('trained')}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build()
    driver = os.path.join(BUILD_DIR, "perfbench")
    env = driver_env()
    prepare_zoo(driver, env)
    os.makedirs(WORK_DIR, exist_ok=True)
    base = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--work-dir", WORK_DIR]

    # Set-up time and set-up memory, one sample per process.
    setup_metrics = ("setup_s", "peak_rss_mb")
    samples = {name: [] for name in setup_metrics}
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            out = last_json(call(base + ["--setup-only"], RUN_TIMEOUT_S, env,
                                 capture=True), "set-up run")
            for name in setup_metrics:
                samples[name].append(out["metrics"][name]["value"])

    text = call(base, RUN_TIMEOUT_S, env, capture=True)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    result = last_json(text, "benchmark run")
    metrics = result["metrics"]
    if not args.trace:
        for name in setup_metrics:
            samples[name].append(metrics[name]["value"])
            metrics[name]["value"] = statistics.median(samples[name])
        lines.insert(-1, "set-up processes " + json.dumps(samples))

    want = expected_metrics(args.trace)
    if sorted(metrics) != sorted(want):
        die(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}", 3)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
