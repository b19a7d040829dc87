"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks three things and exits nonzero on the first that fails:

1. A corrupted, changed or raising case output is counted as failed.
2. Two traced runs with the same seed give identical counts (every
   ``*.calls`` and ``linalg.kernel.*`` metric), and the traced
   ``report nonsplit-2-2`` case solves three times.
3. Every workload and every metric name and unit the benchmark prints
   matches BENCHMARK.json.

The traced runs use all workloads unless some are named; they take a few
minutes because each runs at least one untraced and one traced pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import OUT_DIR, ROOT, Runner, import_supervec, plain

TRACE_SECONDS = 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(spec, workload, trace, seed=7):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(TRACE_SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace %d exited %d" % (workload, trace, proc.returncode))
    return json.loads(lines[-1]), lines


def check_failure_counting(workloads):
    """A corrupted first output, an output that later changes, and an exception all count."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.setup_bundled(0, OUT_DIR)
    cases = {case.name: case for case in workload.cases}
    good, changing, raising = cases["report:c01"], cases["report:k0"], cases["report:k-1"]
    calls = {"changing": 0}

    def corrupted():
        return good.run().replace("jacobi=true", "jacobi=false")

    def changes_later():
        calls["changing"] += 1
        text = changing.run()
        return text if calls["changing"] == 1 else text + "\n"

    def raises():
        raise RuntimeError("deliberate failure")

    workload.cases = [
        workloads.Case("report:c01", corrupted),
        workloads.Case("report:k0", changes_later),
        workloads.Case("report:k-1", raises),
    ]
    runner = Runner(workload, workloads)
    runner.run_pass(plain)
    assert (runner.attempted, runner.failed) == (3, 2), (runner.attempted, runner.failed)
    runner.run_pass(plain)
    assert (runner.attempted, runner.failed) == (6, 5), (runner.attempted, runner.failed)
    print("ok: corrupted, changed and raising outputs count as failed (5/6)")


def _is_count(name):
    return name.endswith(".calls") or name.startswith("linalg.kernel.") and not name.endswith("_s")


def check_traced_runs(spec, names):
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in names:
        first, lines = run_benchmark(spec, workload, 1)
        second, _ = run_benchmark(spec, workload, 1)
        for result in (first, second):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, "per-layer names or units differ on %s" % workload
            assert result["failed"] == 0, "%s failed %d cases" % (workload, result["failed"])
        counts = sorted(k for k in expected if _is_count(k))
        differ = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
        assert not differ, "%s counts differ between runs: %s" % (workload, differ)
        if workload == "bundled-report":
            case = [line for line in lines if line.startswith("case report:nonsplit-2-2 ")]
            assert case and " liealg.solve.calls=3 " in case[0] + " ", case
        print("ok: %s traced twice, %d counts identical" % (workload, len(counts)))


def check_untraced_names(spec):
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result, _ = run_benchmark(spec, "bundled-report", 0)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, "end-to-end names or units differ: %s" % got
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    print("ok: end-to-end metric names and units match BENCHMARK.json")


def main(argv):
    workloads = import_supervec()
    if workloads is None:
        print("error: no supervec source", file=sys.stderr)
        return 2
    spec = load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == list(workloads.WORKLOADS), (declared, list(workloads.WORKLOADS))
    print("ok: workloads match BENCHMARK.json")
    check_failure_counting(workloads)
    check_untraced_names(spec)
    check_traced_runs(spec, argv or declared)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
