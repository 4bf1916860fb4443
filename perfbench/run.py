#!/usr/bin/env python3
"""Builds and runs the campaign benchmark (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload network --seed 2007 --seconds 50 --trace 0

campaign_bench.cpp is built from source with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; a relative directory is taken relative to the repository root. Build
output goes to stderr. The benchmark's stdout passes through unchanged; its
last line is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("network", "ecu")
# The benchmark builds the simulator from these; without them it cannot run.
REQUIRED = ("src/CMakeLists.txt", "bench/CMakeLists.txt",
            "bench/campaign_scenarios.hpp")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the simulator and benchmark sources, for comparing runs
    of checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "bench", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, timeout=30)
    return result.stdout.strip() if result.returncode == 0 else "none"


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "campaign_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "campaign_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # No default here: BENCHMARK.json's command carries the default seed,
    # and a later --seed on the command line overrides it.
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--per-class", type=int, default=0,
                        help="shrink the campaign (the benchmark's tests)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="override the workload's worker count")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail(f"not a simulator checkout (missing {', '.join(missing)})")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--per-class", str(args.per_class), "--jobs", str(args.jobs),
               "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
