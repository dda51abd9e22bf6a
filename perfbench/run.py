#!/usr/bin/env python3
"""Builds the Odyssey end-to-end benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
                             --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the root of a checkout. The first form builds (incrementally) and
runs one workload; its last line of standard output is the benchmark's JSON
result. The second runs every workload untraced and then traced, printing
every metric. Build output goes to standard error. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build; fixture archives and span
dumps go to its work/ subdirectory.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["batch-skewed-full", "point-repeat-split", "stream-dtw-full"]
DEFAULT_SEED = "1"
DEFAULT_SECONDS = "20"
# A run's own limit, build excluded; the benchmark finishes well inside it.
RUN_TIMEOUT_SECONDS = 175


def build(build_dir):
    """Configures and builds into build_dir; returns the binary path or None."""
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--parallel",
                str(os.cpu_count() or 1)]
    for step in (configure, compile_):
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return None
    return os.path.join(build_dir, "odyssey_perfbench")


def run(binary, work_dir, args):
    """Runs the benchmark with args; returns its exit code."""
    try:
        return subprocess.run([binary, "--work-dir", work_dir] + args,
                              timeout=RUN_TIMEOUT_SECONDS).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_SECONDS} s",
              file=sys.stderr)
        return 1


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    flags = dict(zip(argv[::2], argv[1::2]))
    if flags.get("--workload") == "all":
        seed = flags.get("--seed", DEFAULT_SEED)
        seconds = flags.get("--seconds", DEFAULT_SECONDS)
        for trace in ("0", "1"):
            for workload in WORKLOADS:
                code = run(binary, work_dir,
                           ["--workload", workload, "--seed", seed,
                            "--seconds", seconds, "--trace", trace])
                if code != 0:
                    return code
        return 0
    return run(binary, work_dir, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
