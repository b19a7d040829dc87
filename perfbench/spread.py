"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--trace 0|1] [--json OUT]

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
with the command and ``run_seconds`` from BENCHMARK.json.  For every metric it
prints the median over seeds, the quartiles and the spread (q3 - q1) / median,
which BENCHMARK.json's bounds are checked against, and the failure count.
With ``--json`` that summary is also written to a file, together with the
machine facts (processor count, Python version, commit); ``baseline.json``
and ``baseline_trace.json`` were made that way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, seed, args.trace) for seed in args.seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print("%s: %d runs, fail_ratio %d/%d" % (workload, len(runs), failed, attempted))
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else None
            bound = bounds.get(metric)
            flag = "" if bound is None else "  bound %.2f%s" % (
                bound, "  OVER A THIRD" if spread is None or spread > bound / 3 else ""
            )
            print(
                "  %-26s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s %s%s"
                % (metric, median, q1, q3, "n/a" if spread is None else "%.3f" % spread,
                   first["unit"], flag)
            )
            metrics[metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "n": len(values), "unit": first["unit"],
            }
        summary["workloads"][workload] = {
            "failed": failed, "attempted": attempted, "metrics": metrics,
        }
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


def commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
