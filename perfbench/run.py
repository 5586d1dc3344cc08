#!/usr/bin/env python3
"""Build the whole-program benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--corrupt-expected]

Run from the repository root.  The first run configures and builds
perfbench/ (and the runtime libraries under src/ it links) into the
directory named by $CARGO_TARGET_DIR, default .bench_build; later runs only
re-check that build.  The benchmark process gets a clean environment for
the runtime: every PARCS_* variable is removed, so it runs single-threaded
(PARCS_SIM_THREADS unset) with telemetry, tracing and metrics export off.

Build output goes to stderr.  Stdout carries the benchmark's own report,
whose last line is the JSON result object.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ray-farm", "loadgen-open", "loadgen-overload", "sieve-adaptive"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources not found: run from a checkout holding src/")
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(directory, "perfbench")


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes (self-test)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="check against a wrong reference (self-test)")
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    if args.trace:
        command += ["--spans", os.path.join(
            directory, "spans-%s-%d.json" % (args.workload, args.seed))]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARCS_")}
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
