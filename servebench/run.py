#!/usr/bin/env python3
"""Builds and runs the wall-clock serving benchmark.

Run from the repository root:

  python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke] [--scheduler apt|fcfs]

The benchmark is a CMake project of its own (servebench/CMakeLists.txt) that
compiles the library sources under src/. It is built into
.bench_build/servebench in the repository root (an up-to-date build costs
well under a second) and then run with the given arguments.

The binary prints every metric it measures. The last line of stdout here is
the result, one JSON object

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are exactly those BENCHMARK.json lists: its end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1. The binary's
other lines pass through unchanged; build logs go to stderr. Exits non-zero,
without a result line, when the library sources or BENCHMARK.json are
missing, the build fails, or the run fails.
"""
import json
import os
import subprocess
import sys

# Serving is capped at 150 s inside the binary; set-up and checks add a few.
RUN_TIMEOUT_S = 175


def build(here, build_dir):
    configure = ["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", "4"]
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("servebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def listed_metrics(root, argv):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "serve", "async_serving.h")):
        print("servebench: the library sources (src/) are not next to "
              "servebench/; run from a full checkout", file=sys.stderr)
        return 2
    try:
        names = listed_metrics(root, argv)
    except (OSError, ValueError, KeyError) as e:
        print("servebench: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "servebench")
    if not build(here, build_dir):
        return 1
    binary = os.path.join(build_dir, "servebench")
    try:
        done = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print("servebench: run did not measure %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
