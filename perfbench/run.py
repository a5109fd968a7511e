#!/usr/bin/env python3
"""Build the repository benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # the benchmark's own tests

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt) that
compiles the libraries under src/ and links against them. It builds into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), relative to
the checkout root; build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The traced run (--trace 1)
writes its spans under $CARGO_TARGET_DIR/perfbench-out.

The environment stamp's commit and source digest are computed here on
every run, not at configure time, so a rebuilt binary never names the code
of an earlier build.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("study", "chaos", "serve_query", "serve_lint")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def commit():
    """HEAD of this checkout's own git repository, or "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 and head.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 prefix over every library source under src/, path and content."""
    sources = []
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith((".cpp", ".hpp", ".txt")):
                sources.append(os.path.relpath(os.path.join(directory, name), ROOT))
    listing = ""
    for source in sorted(sources):
        with open(os.path.join(ROOT, source), "rb") as f:
            listing += "%s %s\n" % (source, hashlib.sha256(f.read()).hexdigest())
    return hashlib.sha256(listing.encode()).hexdigest()[:16]


def build(build_dir, target):
    """Configures once, then builds `target`; returns False on failure."""
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.test and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2

    build_dir = os.path.join(build_root(), "perfbench")
    target = "perfbench_tests" if args.test else "wsx_perfbench"
    if not build(build_dir, target):
        return 1
    binary = os.path.join(build_dir, target)
    if not os.path.isfile(binary):
        print("perfbench: %s was not built (GTest missing?)" % target, file=sys.stderr)
        return 1
    if args.test:
        return subprocess.run([binary]).returncode

    out_dir = os.path.join(build_root(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
