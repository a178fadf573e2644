#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sf5-seq|sf5-pe8|service-mix|all \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
the program's libraries and the quake_perfbench binary into
.bench_build/ (later calls rebuild incrementally), then runs it; its
last stdout line is the JSON result.  Checkpoints, streamed results and
Chrome traces go to .bench_out/.  Build output goes to stderr so stdout
stays quake_perfbench's own.  The exit code is quake_perfbench's:
non-zero when a check failed, when the build failed, or when the
program sources are missing.

--self-test builds and runs the benchmark's own unit tests and checks
that the metrics quake_perfbench reports are the ones BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175


def build(target):
    """Configure (once) and build `target`; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        status = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode:
            print("error: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Run a built binary from the checkout root; its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: %s exceeded %d s" % (cmd[0], RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


def self_test():
    if not build("perfbench_selftest") or not build("quake_perfbench"):
        return 1
    status = run([os.path.join(BUILD, "perfbench_selftest")])
    listed = subprocess.run([os.path.join(BUILD, "quake_perfbench"),
                             "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    reported = [tuple(line.split()) for line in listed if line]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = ([("end_to_end", m["name"], m["unit"])
                 for m in spec["end_to_end"]] +
                [("per_layer", m["name"], m["unit"])
                 for m in spec["per_layer"]])
    if reported != declared:
        print("FAILED: reported metrics differ from BENCHMARK.json:",
              sorted(set(reported) ^ set(declared)), file=sys.stderr)
        return 1
    print("metric catalogue matches BENCHMARK.json (%d metrics)"
          % len(declared))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if not build("quake_perfbench"):
        return 1
    return run([os.path.join(BUILD, "quake_perfbench"),
                "--workload", args.workload, "--seed", args.seed,
                "--seconds", args.seconds, "--trace", args.trace,
                "--out", OUT])


if __name__ == "__main__":
    sys.exit(main())
