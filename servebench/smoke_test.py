#!/usr/bin/env python3
"""Smoke test of the serving benchmark.

Runs every workload untraced and traced in smoke mode (shrunken traces, a
few seconds per run, every correctness check still on) through the same
command BENCHMARK.json records, and checks each result line: exactly the
metrics BENCHMARK.json lists, with their units, all finite; `correct` true;
no failed request. Also checks that an unknown workload exits non-zero
without a result line. Run from the repository root:

  python3 servebench/smoke_test.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + args,
        capture_output=True, text=True, cwd=ROOT, timeout=900)


def check_result(label, done, expected):
    errors = []
    if done.returncode != 0:
        return ["%s: exit code %d: %s" % (label, done.returncode,
                                          done.stderr[-2000:])]
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["%s: last stdout line is not JSON" % label]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
        return errors
    if result["correct"] is not True:
        errors.append("%s: a correctness check failed: %s" %
                      (label, done.stderr[-2000:]))
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s: attempted %s failed %s" %
                      (label, result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        errors.append("%s: metric names differ from BENCHMARK.json: %s" %
                      (label, sorted(set(metrics) ^ set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s: %s unit %s, expected %s" %
                          (label, name, m.get("unit"), unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (label, name, value))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []
    for workload in workloads:
        for trace, expected in (("0", e2e), ("1", layer)):
            label = "%s trace=%s" % (workload, trace)
            done = run(["--workload", workload, "--seed", "3", "--seconds",
                        "2", "--trace", trace, "--smoke"])
            found = check_result(label, done, expected)
            print("%s: %s" % (label, "ok" if not found else "FAIL"))
            errors += found
    bad = run(["--workload", "no-such-workload", "--seed", "1", "--seconds",
               "2", "--trace", "0", "--smoke"])
    if bad.returncode == 0 or bad.stdout.strip().startswith("{"):
        errors.append("unknown workload: exit %d with output %r" %
                      (bad.returncode, bad.stdout[-200:]))
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke test: %s" % ("PASS" if not errors else "FAIL"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
