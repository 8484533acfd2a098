#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload train|serve|catalog --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to .bench_build/perfbench-build.log. The
benchmark's stdout is passed through; its last line is the JSON result.
The exit code is the benchmark's: 0 when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
WORKLOADS = ("train", "serve", "catalog")
# A run must end within 180 s; leave room to report a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(BUILD_LOG, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                      "perfbench", "perfbench_selftest"])
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed; see {BUILD_LOG}")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none-not-a-git-checkout"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def src_sha256():
    """Content hash of src/: identifies the program when git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                                cwd=ROOT).returncode)

    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SRC_SHA256=src_sha256())
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out_dir", OUT_DIR]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {result.returncode})")
    print("\n".join(lines[:-1]))
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"benchmark ended without a result (exit {result.returncode})")
    # The result carries exactly the metrics BENCHMARK.json lists for this
    # mode; anything else the program measured goes on the line before.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = [m["name"] for m in
                  json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]]
    missing = [name for name in listed if name not in record["metrics"]]
    if missing:
        fail("benchmark did not report " + ", ".join(missing))
    extra = {k: v for k, v in record["metrics"].items() if k not in listed}
    print("unbounded: " + json.dumps(extra, sort_keys=True))
    record["metrics"] = {name: record["metrics"][name] for name in listed}
    print(json.dumps(record), flush=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
