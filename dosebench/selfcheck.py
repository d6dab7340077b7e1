#!/usr/bin/env python3
"""Self-check of the dose-stack benchmark at tiny scale.

Run from the repository root:  python3 dosebench/selfcheck.py

For every workload it runs the benchmark untraced and traced at scale 0.2
for one second and checks that the last line is the result object, that
the run is correct with nothing failed, and that it reports exactly the
metrics BENCHMARK.json lists for that mode (end to end untraced, per layer
traced), each with its unit and a number as its value, positive for the
end-to-end ones.  Then it corrupts one dose
in every workload, and one gpusim counter in sim_profile, and checks that
each of those runs exits non-zero with `correct` false.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
TINY = ["--scale", "0.2", "--seconds", "1", "--seed", "3"]

WORKLOADS = ["serve_churn", "sim_profile"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--trace", str(trace)]
    proc = subprocess.run(cmd + TINY + list(extra), capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if names != WORKLOADS:
        print("FAIL BENCHMARK.json workloads %s, selfcheck knows %s" % (names, WORKLOADS))
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in bench[kind]}
            code, result, err = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result\n%s" % (tag, code, err[-800:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    tag, result["correct"], result["attempted"], result["failed"]))
            metrics = result["metrics"]
            for name in sorted(set(units) - set(metrics)):
                problems.append("%s: metric %s missing" % (tag, name))
            for name in sorted(set(metrics) - set(units)):
                problems.append("%s: metric %s not in BENCHMARK.json %s" % (
                    tag, name, kind))
            for name, entry in metrics.items():
                if name in units and units[name] != entry.get("unit"):
                    problems.append("%s: %s unit %r, BENCHMARK.json %r" % (
                        tag, name, entry.get("unit"), units[name]))
                value = entry.get("value")
                if not isinstance(value, (int, float)) or (trace == 0 and value <= 0):
                    problems.append("%s: %s value %r" % (tag, name, value))
            print("ok   %s: %d metrics" % (tag, len(metrics)), flush=True)

    faults = [(w, "dose") for w in WORKLOADS] + [("sim_profile", "counter")]
    for workload, fault in faults:
        code, result, _ = run(workload, 0, ["--inject", fault])
        caught = code != 0 and result is not None and result["correct"] is False
        print("%s %s with a corrupted %s" % (
            "ok  " if caught else "FAIL", workload, fault), flush=True)
        if not caught:
            problems.append("%s: corrupted %s not detected (exit %d)" % (
                workload, fault, code))

    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %s" % ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
