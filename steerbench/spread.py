#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 steerbench/spread.py --workload W [--seeds 1-10] [--seconds S]
        [--trace 0|1]

Run from the root of a checkout. For every metric it prints the median of
the runs and the distance between the first and third quartile as a share
of that median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json, plus the failed share of each run. Exits 1 when
a run fails or reports correct: false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    units = {}
    ok = True
    for seed in seed_list(opts.seeds):
        cmd = spec["command"] + ["--workload", opts.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", opts.trace]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, run.returncode,
                                             run.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        print("seed %d: correct=%s attempted=%d failed=%d (share %.6f) %s" %
              (seed, result["correct"], result["attempted"],
               result["failed"], share,
               " ".join("%s=%.6g" % (k, m["value"])
                        for k, m in result["metrics"].items())))
        sys.stdout.flush()
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("%-36s %14s %8s %8s  %s" % ("metric", "median", "iqr/med",
                                      "bound", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med != 0:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        print("%-36s %14.6g %8.4f %8s  %s" % (
            name, med, spread, "-" if bound is None else bound, units[name]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
