#!/usr/bin/env python3
"""gridbench: host cost of gridmon's campaigns, end to end and per layer.

Run from the repository root:

    python3 gridbench/run.py --workload hier_1m --seed 1 --seconds 50 --trace 0

Builds gridbench/CMakeLists.txt into .bench_build/ (a no-op once built), then
repeats the workload, one fresh gridbench_repetition process each time, until
--seconds have been measured, and reports medians. --trace 0 prints the
end-to-end metrics; --trace 1 runs untraced/traced pairs and prints the
per-layer metrics (no end-to-end metric comes from a traced repetition).
Without --workload every workload runs, untraced then traced. Metric names
and units are the ones BENCHMARK.json defines.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Results, with the host fingerprint, are also written to
.bench_build/results/ and the traced run's spans to .bench_build/traces/
(Chrome trace-event JSON; open with Perfetto).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "gridbench"
BUILD_DIR = ROOT / ".bench_build"
REPETITION = BUILD_DIR / "gridbench_repetition"
WORKLOADS = ("mqtt_highrate", "hier_1m", "paper_campaign")
REP_TIMEOUT_S = 150
MIN_REPS = 3


def metric_units():
    """End-to-end and per-layer metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


END_TO_END, PER_LAYER = metric_units()
UNITS = {**END_TO_END, **PER_LAYER, "failed_pct": "%"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; False if either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD_DIR), "--target",
              "gridbench_repetition", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("gridbench: build failed: " + " ".join(step))
            return False
    return REPETITION.exists()


def source_digest():
    """Hash of the src/ and gridbench/ sources: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "gridbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_rep(workload, seed, jobs=None, trace_file=None):
    """One repetition process. Returns its report, or None if it failed."""
    cmd = [str(REPETITION), workload, "--seed", str(seed)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("gridbench: %s timed out" % " ".join(cmd))
        return None
    if done.returncode != 0:
        log(done.stderr[-2000:])
        log("gridbench: %s exited %d" % (" ".join(cmd), done.returncode))
        return None
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("gridbench: unreadable repetition output")
        return None
    return report


class Checks:
    """Counts runs attempted and runs failing any correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def rep(self, report, expected_runs):
        if report is None:
            self.attempted += expected_runs
            self.failed += expected_runs
            self.messages.append("a repetition crashed or timed out")
            return
        self.attempted += report["runs"]
        self.failed += report["failed_runs"]
        self.messages += report["failures"]

    def digests(self, reports, label):
        """Every report in the set must carry the first one's digest."""
        reports = [r for r in reports if r is not None]
        for report in reports[1:]:
            if report["digest"] != reports[0]["digest"]:
                self.failed += report["runs"]
                self.messages.append("%s digest %s != %s" % (
                    label, report["digest"], reports[0]["digest"]))

    @property
    def failed_pct(self):
        return 100.0 * self.failed / self.attempted if self.attempted else 100.0


def expected_runs(workload):
    return 75 if workload == "paper_campaign" else 1


def repeat(seconds, rep_fn, min_reps=MIN_REPS):
    """Call rep_fn until the next call would overrun `seconds`."""
    reports = []
    begin = time.monotonic()
    while True:
        report = rep_fn()
        reports.append(report)
        if report is None:
            break
        elapsed = time.monotonic() - begin
        per_rep = elapsed / len(reports)
        if len(reports) >= min_reps and elapsed + per_rep > seconds:
            break
    return reports


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def end_to_end(workload, seed, seconds, checks):
    reports = repeat(seconds, lambda: run_rep(workload, seed))
    for report in reports:
        checks.rep(report, expected_runs(workload))
    checks.digests(reports, "untraced")
    good = [r for r in reports if r is not None]
    if not good:
        return {}, None, []
    for report in good:
        report["samples_per_s"] = report["counts"]["core.sent"] / report["wall_s"]
    return {name: median_of(good, name) for name in END_TO_END}, good[0], good


def percentile(values, q):
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def per_layer(workload, seed, seconds, checks):
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / ("%s-seed%d.json" % (workload, seed))
    runs = expected_runs(workload)
    singles = []
    if workload == "paper_campaign":
        # One worker and nproc workers must give the simulated results of
        # the workload's own worker count.
        singles = [run_rep(workload, seed, jobs=1),
                   run_rep(workload, seed, jobs=os.cpu_count() or 1)]
    untraced, traced = [], []

    def pair():
        untraced.append(run_rep(workload, seed))
        if untraced[-1] is None:
            return None
        traced.append(run_rep(workload, seed, trace_file=trace_file))
        return traced[-1]

    repeat(seconds, pair, min_reps=1)
    for report in singles + untraced + traced:
        checks.rep(report, runs)
    checks.digests(singles + untraced, "untraced (1, default and nproc workers)")
    checks.digests(traced, "traced")
    if None in untraced or None in traced or not traced:
        return {}, None
    # Counts are deterministic, so any traced repetition gives them.
    values = dict(traced[0]["counts"])
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    values["sim.events_per_s"] = (values["sim.events"] /
                                  median_of(untraced, "wall_s"))
    # Each traced repetition directly follows an untraced one.
    values["obs.trace_overhead_pct"] = statistics.median(
        100.0 * (t["wall_s"] / u["wall_s"] - 1.0)
        for u, t in zip(untraced, traced))
    walls = [w for r in untraced for w in r["run_walls"]]
    values["core.run_wall_p50_s"] = percentile(walls, 0.50)
    values["core.run_wall_p85_s"] = percentile(walls, 0.85)
    values["core.run_wall_samples"] = len(walls)
    values["core.worker_busy_pct"] = statistics.median(
        100.0 * sum(r["run_walls"]) / (r["jobs"] * r["wall_s"])
        for r in untraced)
    # The untraced digest, the one --trace 0 prints.
    return {name: values[name] for name in PER_LAYER}, untraced[0]


def print_metric(workload, name, value):
    print("%-16s %-26s %16.6g %s" % (workload, name, value, UNITS[name]))


def measure(workload, seed, seconds, trace, host):
    checks = Checks()
    reps = []
    if trace:
        metrics, sample = per_layer(workload, seed, seconds, checks)
    else:
        metrics, sample, reports = end_to_end(workload, seed, seconds, checks)
        reps = [{k: r[k] for k in END_TO_END} for r in reports]
    if sample is not None:
        host = dict(host, **sample["host"])
    print("gridbench %s seed=%d trace=%d host=%s" % (
        workload, seed, trace, json.dumps(host, sort_keys=True)))
    for name, value in metrics.items():
        print_metric(workload, name, value)
    print_metric(workload, "failed_pct", checks.failed_pct)
    print("%-16s %-26s %16s" % (workload, "digest",
                                sample["digest"] if sample else "none"))
    for message in checks.messages[:20]:
        print("%-16s check failed: %s" % (workload, message))
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, "host": host,
              "digest": sample["digest"] if sample else None,
              "attempted": checks.attempted, "failed": checks.failed,
              "failed_pct": checks.failed_pct, "failures": checks.messages,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()},
              "repetitions": reps}
    (results / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return metrics, checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    host = {"git_rev": git_rev(), "src_digest": source_digest()}
    if args.workload == "all":
        plan = [(w, 0) for w in WORKLOADS] + [(w, 1) for w in WORKLOADS]
    else:
        plan = [(args.workload, args.trace)]
    attempted = failed = 0
    out = {}
    for workload, trace in plan:
        metrics, checks = measure(workload, args.seed, args.seconds, trace,
                                  host)
        attempted += checks.attempted
        failed += checks.failed
        prefix = "" if len(plan) == 1 else workload + "/"
        for name, value in metrics.items():
            out[prefix + name] = {"value": value, "unit": UNITS[name]}
    if not out:
        attempted = max(attempted, 1)
        failed = max(failed, 1)
    print(json.dumps({"correct": failed == 0 and bool(out),
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
