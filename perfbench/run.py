"""polylift benchmark.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Runs one workload (verify, describe, bounds, factorize) in this process, or
all four in fresh child processes with --workload all.  The load is a closed
loop with one client: each job starts when the previous one returns, and
the job list repeats until another pass would end more than half a pass
past --seconds (it runs at least once).  Every output is checked with the
benchmark's own exact arithmetic (checks.py), after the timed loop.  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are CPU seconds of this process rescaled to a fixed reference speed
(clock.py), because on a shared host the raw CPU time of fixed work swings
by up to 2x.  The program is single-threaded, so on an idle host raw CPU
time equals wall time; both are printed beside the rescaled figures.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  norm_cpu_s   median over the passes of one pass's rescaled CPU time
  setup_s      median rescaled CPU time of nine set-ups made before the
               passes, each a fresh import of the program (from cached
               bytecode), input generation, the targets the jobs take as
               given, files, and the warm-up job
  peak_rss_mb  peak resident set size of this process
and prints, by name and unit, the median pass CPU and wall times (cpu_s,
wall_s), failed_ratio, budget_exhausted and bound_gap.

--trace 1 runs three untraced passes, then three traced set-ups and passes
with spans at every public layer boundary (spans.py), and reports the
per-layer metrics of the last traced pass, the tracing overhead (median
traced minus median untraced pass time, rescaled), the estimated cost of
its spans, and each layer's share of its self time.  Its spans are written
to .perfbench_out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REF_NOMINAL_S, Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUPS = 9
TRACE_PASSES = 3
BENCH_MODULES = ("workloads", "checks")
CHILD_TIMEOUT_S = 170


def load_program():
    """Import polylift from this checkout's src/, or exit non-zero."""
    if not (SRC / "polylift" / "__init__.py").is_file():
        sys.exit(f"error: no polylift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polylift

    if Path(polylift.__file__).resolve().parent != (SRC / "polylift").resolve():
        sys.exit(f"error: imported polylift from {polylift.__file__}, not from {SRC}")


class Tally:
    """Attempted and failed jobs, the first problem of each failure, and the
    budget and gap totals of the bounds reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.budget_exhausted = 0
        self.bound_gap = 0

    def record(self, job, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{job.name}: {problems[0]}")

    def check(self, job, out, err):
        """Check one output with the benchmark's own arithmetic."""
        problems = [err] if err is not None else job.check(out)
        self.record(job, problems)
        return problems

    def count_bounds(self, out):
        from polylift import bounds

        import workloads

        if isinstance(out, bounds.BoundReport):
            exhausted, gap = workloads.bounds_outcome(out)
            self.budget_exhausted += exhausted
            self.bound_gap += gap


def call(job):
    """(output, error message or None)."""
    try:
        return job.run(), None
    except Exception as e:  # a failed job is counted, the run goes on
        return None, f"raised {type(e).__name__}: {e}"


def run_job(job, clock):
    """(output, error message or None, CPU seconds, rescaled CPU seconds,
    wall seconds)."""
    (out, err), cpu, scaled, wall = clock.run(lambda: call(job))
    return out, err, cpu, scaled, wall


def purge():
    """Drop the program and the benchmark's own modules, so that the next
    import of workloads loads them afresh from their cached bytecode."""
    for name in list(sys.modules):
        if name in BENCH_MODULES or name == "polylift" or name.startswith("polylift."):
            del sys.modules[name]
    gc.collect()


def set_up(name, seed, workdir, tally, clock):
    """One set-up: the import, the inputs, the targets the jobs take as
    given, files, and the warm-up job.  Returns the workload and the set-up
    time in CPU seconds, raw and rescaled."""
    purge()

    def build():
        wl = importlib.import_module("workloads").build(name, seed, workdir)
        return (wl, *call(wl.warmup))

    (wl, out, err), raw, scaled, _ = clock.run(build)
    tally.check(wl.warmup, out, err)
    return wl, raw, scaled


class Passes:
    """Timed passes over one job list.  Outputs are checked after the timing:
    the first output of each job in full, later ones by equality with it."""

    def __init__(self, wl, clock):
        self.wl = wl
        self.clock = clock
        self.cpu = [[] for _ in wl.jobs]
        self.scaled = [[] for _ in wl.jobs]
        self.wall = [[] for _ in wl.jobs]
        self.first = []                       # (output, error) of the first pass
        self.later = [[] for _ in wl.jobs]    # error, or whether the output repeats

    def run(self):
        """One pass; returns its wall seconds."""
        for i, job in enumerate(self.wl.jobs):
            out, err, cpu, scaled, wall = run_job(job, self.clock)
            self.scaled[i].append(scaled)
            self.cpu[i].append(cpu)
            self.wall[i].append(wall)
            if len(self.first) <= i:
                self.first.append((out, err))
            else:
                self.later[i].append(err if err is not None else out == self.first[i][0])
        return sum(w[-1] for w in self.wall)

    @staticmethod
    def per_pass(times):
        return [sum(ts) for ts in zip(*times)]

    def check(self, tally):
        for i, job in enumerate(self.wl.jobs):
            problems = tally.check(job, *self.first[i])
            tally.count_bounds(self.first[i][0])
            for res in self.later[i]:
                if isinstance(res, str):
                    tally.record(job, [res])
                elif not res:
                    tally.record(job, ["output differs from the first pass"])
                else:
                    tally.record(job, problems)


def measure(name, seed, seconds, workdir):
    tally = Tally()
    clock = Clock()
    setups, wl = [], None
    for _ in range(SETUPS):
        wl = None  # let the previous set-up's modules go before the next import
        wl, raw, scaled = set_up(name, seed, workdir, tally, clock)
        setups.append((raw, scaled))
    passes = Passes(wl, clock)
    t0 = time.perf_counter()
    while True:
        pass_s = passes.run()
        # stop before a pass that would end more than half a pass past --seconds
        if time.perf_counter() - t0 + pass_s / 2 > seconds:
            break
    passes.check(tally)
    scaled, cpu, wall = (passes.per_pass(t) for t in (passes.scaled, passes.cpu, passes.wall))
    lines = [f"workload {name}  seed {seed}  passes {len(cpu)}  jobs {len(wl.jobs)}  "
             f"closed loop, 1 client",
             f"  reference median {statistics.median(clock.refs):.4f} s CPU "
             f"(nominal {REF_NOMINAL_S} s) over {len(clock.refs)} runs",
             "  set-up  " + "  ".join(f"{s:.4f}" for _, s in setups) + " s rescaled  ("
             + "  ".join(f"{r:.4f}" for r, _ in setups) + " s CPU)"]
    lines += [f"  pass {s:.4f} s rescaled  cpu {c:.4f} s  wall {w:.4f} s" for s, c, w in zip(scaled, cpu, wall)]
    lines += [f"  job {job.name:38s} median {statistics.median(s):.4f} s rescaled  "
              f"{statistics.median(c):.4f} s CPU  {statistics.median(w):.4f} s wall"
              for job, s, c, w in zip(wl.jobs, passes.scaled, passes.cpu, passes.wall)]
    metrics = {
        "norm_cpu_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "cpu_s": (statistics.median(cpu), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "budget_exhausted": (tally.budget_exhausted, "count"),
        "bound_gap": (tally.bound_gap, "count"),
    }
    return tally, metrics, extra, lines


def traced_pass(name, seed, workdir, tally, clock=None):
    """A set-up and one pass with spans at every layer boundary; every
    output is checked.  Returns (tracer, workload, the pass's rescaled CPU
    seconds).  The clock must not sample, or its reference would land in
    the spans."""
    import workloads
    from spans import Tracer

    clock = clock or Clock(sample=False)
    tracer = Tracer()
    tracer.install()
    try:
        wl = tracer.run_job("setup", lambda: workloads.build(name, seed, workdir))
        tracer.run_job("setup", wl.warmup.run)
        traced = 0.0
        outs = []
        for job in wl.jobs:
            (out, err), _, scaled, _ = clock.run(lambda job=job: tracer.run_job(job.name, lambda: call(job)))
            traced += scaled
            outs.append((job, out, err))
    finally:
        tracer.uninstall()
    for job, out, err in outs:
        tally.check(job, out, err)
        tally.count_bounds(out)
    return tracer, wl, traced


def trace(name, seed, workdir):
    tally = Tally()
    clock = Clock(sample=False)
    wl, _, _ = set_up(name, seed, workdir, tally, clock)
    passes = Passes(wl, clock)
    for _ in range(TRACE_PASSES):
        passes.run()
    passes.check(tally)
    untraced_passes = passes.per_pass(passes.scaled)
    untraced = statistics.median(untraced_passes)
    runs = []
    for _ in range(TRACE_PASSES):
        before = (tally.budget_exhausted, tally.bound_gap)
        runs.append(traced_pass(name, seed, workdir, tally, clock))
    traced = statistics.median(r[2] for r in runs)
    tracer, wl, _ = runs[-1]

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{name}-{seed}.jsonl"
    tracer.write(span_file)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.span_cost_s"] = (tracer.span_cost() * len(tracer.spans), "s")
    metrics["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    metrics["budget_exhausted"] = (tally.budget_exhausted - before[0], "count")
    metrics["bound_gap"] = (tally.bound_gap - before[1], "count")
    if not tracer.pivot_hooks:
        print("warning: simplex._pivot/_run_phase not found; pivot counts absent", file=sys.stderr)

    selfs = tracer.self_times(jobs={job.name for job in wl.jobs})
    lines = [f"workload {name}  seed {seed}  median rescaled CPU of {TRACE_PASSES} passes: traced {traced:.4f} s, "
             f"untraced {untraced:.4f} s  spans of the last traced pass {len(tracer.spans)} -> "
             f"{span_file.relative_to(ROOT)}",
             "  passes untraced " + "  ".join(f"{t:.4f}" for t in untraced_passes) + " s, traced "
             + "  ".join(f"{r[2]:.4f}" for r in runs) + " s: an overhead smaller than their spread is noise;"
             " trace.span_cost_s estimates it directly",
             "  share of the last traced pass's self time (layer 'job' is time outside every wrapped layer):"]
    total = sum(selfs.values())
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"  share {layer:22s} {s / total:7.2%}  {s:.4f} s")
    return tally, metrics, {}, lines


def fmt(value):
    return f"{value}" if isinstance(value, int) else f"{float(value):.6g}"


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            tally, metrics, extra, lines = trace(args.workload, args.seed, str(workdir))
        else:
            tally, metrics, extra, lines = measure(args.workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{key} {fmt(value)} {unit}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and warm state do not carry over."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    load_program()
    import workloads

    p = argparse.ArgumentParser(description="polylift benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
