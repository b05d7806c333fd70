#!/usr/bin/env python3
"""Benchmark for gdecomp, run from the repository root:

    python3 perfbench/run.py --workload report --seed 1 --seconds 40 --trace 0

Without --workload it runs every workload, each in its own interpreter.
Each workload is a closed loop: one process, one thread, one client, the
next job starting when the previous one ends. Passes over the workload's
job list repeat while another pass fits in --seconds (at least one).
End-to-end times are scaled to a fixed machine speed (see Clock), and
the raw medians are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
pass, then one pass with every layer wrapped from outside (see tracing.py),
checks that both gave byte-identical artifacts and prints the per-layer
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
# seconds the calibration kernel takes when this machine runs at full
# speed: end-to-end times are reported in seconds at that speed
CAL_REF = 0.075
PINNED_HASHSEED = "0"
UNSET = ("GDECOMP_CACHE", "GDECOMP_NO_EXT")

perf = time.perf_counter


def pin_environment():
    """Re-execute under a fixed hash seed and without the variables that
    change gdecomp's behaviour, so runs compare like with like."""
    if os.environ.get("PYTHONHASHSEED") == PINNED_HASHSEED \
            and not any(v in os.environ for v in UNSET):
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONHASHSEED"] = PINNED_HASHSEED
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                               *sys.argv[1:]], env)


def import_gdecomp():
    """Fresh import of the package; returns {module name: module}."""
    for name in [n for n in sys.modules
                 if n == "gdecomp" or n.startswith("gdecomp.")]:
        del sys.modules[name]
    importlib.import_module("gdecomp.cli")
    return {n: m for n, m in sys.modules.items()
            if n == "gdecomp" or n.startswith("gdecomp.")}


class Clock:
    """Scales measured seconds to seconds at the speed CAL_REF stands for.

    Other tenants of the machine slow every job, by up to a half for
    seconds to minutes at a time. A fixed pure-Python kernel written in the
    benchmark (a normal-form BFS of C6 *_{C3} C12) is timed before and
    after every piece of timed work; the work's seconds are scaled by
    CAL_REF over the mean of the two. No change to gdecomp moves the
    kernel, while the machine's load moves it in step with the work.
    """

    def __init__(self):
        self.samples = []
        self.calibrate()

    def calibrate(self):
        t0 = perf()
        oracles.amalgam_sphere_sizes(6, 3, 12, 15)
        self.samples.append(perf() - t0)

    def scale(self, seconds):
        """Scale the seconds of work done since the last calibration."""
        self.calibrate()
        return seconds * 2 * CAL_REF / (self.samples[-2] + self.samples[-1])


def setup(workload, inputs, out_dir, clock):
    """SETUP_REPEATS timed set-ups (import gdecomp, load or build the
    workload's groups): ((raw seconds, scaled seconds), modules, jobs),
    with the modules and jobs of the last."""
    _, make_jobs = workloads.WORKLOADS[workload]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf()
        modules = import_gdecomp()
        jobs = make_jobs(modules, inputs, out_dir)
        raw.append(perf() - t0)
        scaled.append(clock.scale(raw[-1]))
    return (raw, scaled), modules, jobs


class Pass:
    def __init__(self):
        self.times = {}  # job name -> seconds
        self.scaled = {}  # job name -> seconds at reference speed
        self.failures = []  # (job name, cause)
        self.wrong = []  # (job name, oracle error)
        self.artifacts = {}


def run_pass(jobs, clock, tracer=None, keep_artifacts=False):
    p = Pass()
    for job in jobs:
        gc.collect()
        if tracer is not None:
            tracer.job = job.name
        t0 = perf()
        try:
            result, error = job.run(), None
        except Exception as e:  # a failed operation; the loop goes on
            result, error = None, f"{type(e).__name__}: {e}"
        p.times[job.name] = perf() - t0
        p.scaled[job.name] = clock.scale(p.times[job.name])
        if error is not None:
            p.failures.append((job.name, error))
            continue
        try:
            errors = job.check(result)
        except Exception as e:  # output too malformed to check
            errors = [f"check raised {type(e).__name__}: {e}"]
        if errors:
            p.failures.append((job.name, f"oracle: {errors[0]}"))
            p.wrong += [(job.name, e) for e in errors]
        if keep_artifacts:
            p.artifacts[job.name] = job.artifact(result)
    if tracer is not None:
        tracer.job = None
    return p


def environment(modules):
    return {"backend": modules["gdecomp.cycles"].BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def timed_run(jobs, seconds, clock):
    passes, t0 = [], perf()
    while True:
        passes.append(run_pass(jobs, clock))
        elapsed = perf() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(jobs, passes, setup_times):
    """Medians over the run; times in seconds at reference speed, with the
    raw medians printed beside them."""
    raw_setup, scaled_setup = setup_times

    def median(attr, job=None):
        return statistics.median(
            sum(getattr(p, attr).values()) if job is None
            else getattr(p, attr)[job.name] for p in passes)

    print(f"raw medians over {len(passes)} passes: "
          f"pass {median('times'):.4f} s, "
          + ", ".join(f"{j.name} {median('times', j):.4f} s" for j in jobs)
          + f"; setup {statistics.median(raw_setup):.4f} s")
    metrics = {"setup_s": (statistics.median(scaled_setup), "s"),
               "pass_s": (median("scaled"), "s")}
    for job in jobs:
        if job.slot:
            metrics[job.slot] = (median("scaled", job), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def traced_run(workload, jobs, modules, header, clock):
    base = run_pass(jobs, clock, keep_artifacts=True)
    tracer = tracing.Tracer()
    tracer.install(modules)
    traced = run_pass(jobs, clock, tracer=tracer, keep_artifacts=True)
    for name, data in base.artifacts.items():
        if traced.artifacts.get(name, data) != data:
            traced.failures.append((name, "traced artifact differs"))
            traced.wrong.append((name, "traced artifact differs"))

    metrics = tracer.metrics()
    metrics["cli.artifact_bytes"] = sum(
        len(traced.artifacts.get(job.name, b"")) for job in jobs if job.writes)
    untraced_s, traced_s = sum(base.times.values()), sum(traced.times.values())
    metrics["trace.overhead_s"] = traced_s - untraced_s
    print(f"per-layer table, {workload} (one traced pass, {traced_s:.3f} s; "
          f"untraced {untraced_s:.3f} s)")
    print(f"  {'layer':10} {'self s':>9} {'group ops':>10} {'spans':>7}")
    for layer, self_s, ops, spans in tracer.layer_table():
        print(f"  {layer:10} {self_s:9.3f} {ops:10d} {spans:7d}")
    for name, value in metrics.items():
        print(f"  {name} = {value}")
    spans_file = OUT / f"trace-{workload}.jsonl"
    tracer.write(spans_file, header)
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return [base, traced], {k: (v, tracing.unit(k)) for k, v in metrics.items()}


def run_workload(args):
    inputs = workloads.WORKLOADS[args.workload][0](args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    setup_times, modules, jobs = setup(args.workload, inputs, out_dir, clock)
    header = dict(environment(modules), workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(header, sort_keys=True))
    if args.trace:
        passes, metrics = traced_run(args.workload, jobs, modules, header,
                                     clock)
    else:
        passes = timed_run(jobs, args.seconds, clock)
        metrics = end_to_end(jobs, passes, setup_times)
    failures = [f for p in passes for f in p.failures]
    for name, cause in failures:
        print(f"FAILED {name}: {cause}")
    return {"correct": not any(p.wrong for p in passes),
            "attempted": sum(len(p.times) for p in passes),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(args):
    """Every workload in a fresh interpreter, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    oracles.self_check()
    result = run_all(args) if args.workload is None else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
