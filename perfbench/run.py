"""Supervec benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; supervec is imported from ``src/``.
Set-up (imports, input generation, file writing and the untimed solves) runs
several times and reports its median.  Then whole passes over the workload's
cases run back to back (a closed loop, one client) for about ``--seconds``
seconds.

Every output is checked.  The first pass goes through the workload's full
check; later passes must reproduce the first pass's verified outputs byte for
byte.  An exception, a nonzero CLI exit or a failed check counts the case as
failed; ``fail_ratio`` is printed and ``failed``/``attempted`` carry it.

Timings.  The 2-core machine the baseline was taken on is shared: other
tenants slow everything, often by a quarter and at times by two thirds,
switching within a second and for minutes on end.  So every case and set-up is timed by ``Speed.run``:
a fixed reference unit (exact fraction arithmetic, which supervec's code
never enters) runs before the case and every ``SAMPLE_INTERVAL`` seconds
inside it, and the case's time, less that sampling, is scaled by
``REF_SECONDS / mean reference time``.  A slowdown that hits case and
reference alike cancels, and the figures read as seconds of that machine at
its fastest.  Each case then takes its median over the passes: ``pass_s``,
``cpu_s`` and ``max_case_s`` are the sum, the CPU-time sum and the largest of
those per-case medians.  The median, quartiles and count of the passes as
they ran, unscaled, are printed beside them.

``--trace 0`` patches nothing and reports the end-to-end metrics.  ``--trace
1`` samples nothing: it runs a third of the time untraced, then wraps the
program's public functions (see ``spans.py``) and reports per-pass per-layer
metrics (median over traced passes, unscaled), plus the tracing overhead
(traced minus untraced unscaled pass time); the spans go to ``.bench_out/``
at exit.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter, process_time

START = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
UNTRACED_SHARE = 1 / 3
# about the fastest the reference unit ran on the 2-core machine the baseline
# was taken on (Python 3.11), so scaled times read close to its seconds
REF_SECONDS = 0.0013
REF_TERMS = 600
SAMPLE_INTERVAL = 0.03


def reference_unit():
    """Fixed work that supervec's code does not touch: sum 1/i exactly."""
    acc = Fraction(0)
    for i in range(1, REF_TERMS):
        acc += Fraction(1, i)
    return acc


class Speed:
    """Times regions of work and scales them by the machine's speed meanwhile.

    Before a region, and every SAMPLE_INTERVAL seconds inside it (from a
    SIGALRM handler, between two bytecodes of the work), one reference unit
    runs and is timed.  The region's time minus that sampling time, times
    ``REF_SECONDS / mean reference time``, is its scaled time.
    """

    def __init__(self):
        self.samples = []
        self.spent_wall = self.spent_cpu = 0.0

    def _sample(self, *_signal):
        wall, cpu = perf_counter(), process_time()
        reference_unit()
        wall, cpu = perf_counter() - wall, process_time() - cpu
        self.samples.append(wall)
        self.spent_wall += wall
        self.spent_cpu += cpu

    def run(self, work):
        """Call ``work()``; returns (result, scaled wall, scaled cpu, wall).

        An exception from ``work`` propagates; the sampling stops either way.
        """
        self.samples = []
        self._sample()
        self.spent_wall = self.spent_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        wall, cpu = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = perf_counter() - wall, process_time() - cpu
            signal.signal(signal.SIGALRM, previous)
        scale = REF_SECONDS / statistics.fmean(self.samples)
        wall -= self.spent_wall
        cpu -= self.spent_cpu
        return result, wall * scale, cpu * scale, wall


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def import_supervec():
    """Import the checkout's supervec, or None when the checkout has no source."""
    sys.path.insert(0, SRC)
    try:
        import supervec
    except ImportError:
        return None
    if os.path.dirname(os.path.abspath(supervec.__file__)) != os.path.join(SRC, "supervec"):
        return None
    import workloads

    return workloads


def plain(work):
    """Unscaled timing, for traced passes: (result, wall, cpu, wall)."""
    wall, cpu = perf_counter(), process_time()
    result = work()
    wall = perf_counter() - wall
    return result, wall, process_time() - cpu, wall


class Runner:
    """Runs passes over one workload and tracks verified outputs and failures."""

    def __init__(self, workload, workloads_module):
        self.workload = workload
        self.digest = workloads_module.digest
        self.verified = None
        self.attempted = 0
        self.failed = 0

    def run_pass(self, timer, on_case=None):
        """One pass; returns {case name: (scaled wall, scaled cpu, wall)} in seconds."""
        outputs, raised, times = {}, set(), {}
        for case in self.workload.cases:
            try:
                outputs[case.name], *times[case.name] = timer(case.run)
            except Exception:
                raised.add(case.name)
                traceback.print_exc(file=sys.stderr)
            if on_case is not None:
                on_case(case.name)
        self.attempted += len(self.workload.cases)
        self.failed += len(self.failures(outputs, raised))
        return times

    def failures(self, outputs, raised):
        names = [case.name for case in self.workload.cases]
        if self.verified is None:
            try:
                bad = raised | set(self.workload.check(outputs))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                bad = set(names)
            self.verified = {
                name: self.digest(outputs[name]) for name in names if name not in bad
            }
            for name in sorted(bad):
                print("check failed: %s" % name, file=sys.stderr)
            return bad
        bad = raised | {
            name for name in outputs if self.digest(outputs[name]) != self.verified.get(name)
        }
        for name in sorted(bad):
            print("output changed or failed: %s" % name, file=sys.stderr)
        return bad

    def loop(self, seconds, one_pass):
        """Passes until the next one would end after ``seconds``; at least one."""
        deadline = perf_counter() + seconds
        passes = []
        while True:
            passes.append(one_pass())
            typical = statistics.median(pass_wall(p) for p in passes)
            if perf_counter() + typical > deadline:
                return passes


def pass_wall(times):
    """Unscaled seconds of a pass as it ran, sampling excluded."""
    return sum(t[2] for t in times.values())


def case_medians(passes, index):
    """Each case's median over the passes (0 scaled wall, 1 scaled cpu, 2 wall).

    A case that raised in some pass is left out; it is counted as failed.
    """
    names = set.intersection(*(set(p) for p in passes))
    return [statistics.median(p[name][index] for p in passes) for name in sorted(names)]


def set_up(name, seed, workloads_module, speed):
    """Build the workload SETUP_REPEATS times; returns (workload, scaled seconds)."""
    times = []
    for repeat in range(SETUP_REPEATS):
        workdir = os.path.join(OUT_DIR, "%s-%d-%d" % (name, os.getpid(), repeat))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        workload, scaled, _, _ = speed.run(
            lambda: workloads_module.WORKLOADS[name](seed, workdir)
        )
        times.append(scaled)
    return workload, times


def report_timing(label, values):
    q1, median, q3 = quartiles(values)
    print("%-22s median %.6g  q1 %.6g  q3 %.6g  n %d  s" % (label, median, q1, q3, len(values)))
    return median


def report_value(label, value, unit):
    print("%-22s %.6g %s" % (label, value, unit))
    return {"value": value, "unit": unit}


def run_untraced(runner, seconds, setup_s):
    speed = Speed()
    passes = runner.loop(seconds, lambda: runner.run_pass(speed.run))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_timing("passes as run", [pass_wall(p) for p in passes])
    walls = case_medians(passes, 0)
    return {
        "setup_s": report_value("setup_s", setup_s, "s"),
        "pass_s": report_value("pass_s", sum(walls), "s"),
        "cpu_s": report_value("cpu_s", sum(case_medians(passes, 1)), "s"),
        "max_case_s": report_value("max_case_s", max(walls), "s"),
        "peak_rss_mb": report_value("peak_rss_mb", rss_mb, "MB"),
    }


def run_traced(runner, seconds, tag):
    import spans

    begin = perf_counter()
    untraced = runner.loop(seconds * UNTRACED_SHARE, lambda: runner.run_pass(plain))
    tracer = spans.Tracer()
    per_case, per_pass = {}, []
    last = {}

    def on_case(name):
        # per-case counts of the first traced pass
        if name not in per_case:
            current = tracer.snapshot()
            per_case[name] = {k: current[k] - last[k] for k in current}
            last.update(current)

    def traced_pass():
        before = tracer.snapshot()
        last.update(before)
        times = runner.run_pass(plain, on_case)
        after = tracer.snapshot()
        per_pass.append({k: after[k] - before[k] for k in after})
        return times

    undo = spans.install(tracer)
    try:
        traced = runner.loop(max(seconds - (perf_counter() - begin), 0.0), traced_pass)
    finally:
        spans.uninstall(undo)
    tracer.write(os.path.join(OUT_DIR, "spans-%s.jsonl" % tag))
    if tracer.dropped:
        print("spans kept %d, dropped %d" % (len(tracer.spans), tracer.dropped))

    for name, values in per_case.items():
        counts = " ".join("%s=%d" % (k, v) for k, v in values.items() if k.endswith(".calls") and v)
        print("case %s %s" % (name, counts))
    report_timing("untraced as run", [pass_wall(p) for p in untraced])
    report_timing("traced as run", [pass_wall(p) for p in traced])
    metrics = {}
    for key, first in per_pass[0].items():
        if key.endswith("_s"):
            metrics[key] = {"value": statistics.median(p[key] for p in per_pass), "unit": "s"}
        else:
            if any(p[key] != first for p in per_pass):
                print("count %s differs between traced passes" % key)
            metrics[key] = {"value": first, "unit": "count"}
    overhead = sum(case_medians(traced, 2)) - sum(case_medians(untraced, 2))
    metrics["trace.overhead_s"] = report_value("trace.overhead_s", overhead, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = Speed()
    workloads_module, import_s, _, _ = speed.run(import_supervec)
    if workloads_module is None:
        print("error: no supervec source under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload not in workloads_module.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    try:
        workload, setup_times = set_up(args.workload, args.seed, workloads_module, speed)
        print("%-22s %.6g s" % ("import", import_s))
        setup_s = import_s + report_timing("set-up after import", setup_times)
        runner = Runner(workload, workloads_module)
        if args.trace:
            metrics = run_traced(runner, args.seconds, "%s-seed%d" % (args.workload, args.seed))
        else:
            metrics = run_untraced(runner, args.seconds, setup_s)
    finally:
        for repeat in range(SETUP_REPEATS):
            workdir = os.path.join(OUT_DIR, "%s-%d-%d" % (args.workload, os.getpid(), repeat))
            shutil.rmtree(workdir, ignore_errors=True)

    print(
        "%-22s %d/%d = %.6g"
        % ("fail_ratio", runner.failed, runner.attempted, runner.failed / runner.attempted)
    )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
