"""Run one ensembleq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sequences --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the package is imported from ``src/`` of the checkout that
holds this file. One run:

1. builds the inputs from the seed, runs one warm-up pass, then runs passes
   of the workload's task list, one after another, until ``--seconds`` have
   passed;
2. times set-up (import ensembleq and build the inputs) in SETUP_PROBES fresh
   processes, one in each gap between passes, and reports the median as
   setup_s;
3. with ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
   prints wall_s, the median pass time, with its quartiles; with ``--trace 1``
   it alternates untraced and traced passes, adds one traced pass of every
   other workload so that every per-layer metric is present, and reports the
   per-layer metrics.

Every pass checks the program's outputs. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. A full
record (environment, pass times, failures) and, for traced runs, the spans go
to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("reproduce", "sequences", "trajectories", "substates")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
MIN_PASSES = 3
# Seed kept out of all tuning; later claims confirm on it.
HELD_OUT_SEED = 9973

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].make_inputs({seed!r}, {size!r}, {out!r})
print(time.perf_counter() - t0)
"""


def measure_setup(name, seed, size):
    """Seconds a fresh process takes to import ensembleq and build the inputs."""
    code = _PROBE.format(paths=[str(SRC), str(BENCH)], name=name, seed=seed, size=size,
                         out=str(OUT))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=ROOT, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(jobs):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "mc_jobs": jobs,
        "git_commit": commit,
        "held_out_seed": HELD_OUT_SEED,
        "load": "closed loop, one client in one process",
    }


def _os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def run_passes(name, inputs, seconds, traced, gate, between):
    """Warm-up pass, then passes until ``seconds`` have passed, calling
    ``between()`` after each pass. Traced runs alternate untraced and traced
    passes. Returns wall times, pass stats, the tracer and the highest OS
    thread count seen between passes."""
    import tracing
    import workloads

    null, tracer = tracing.NullTracer(), tracing.Tracer()
    run_pass = workloads.WORKLOADS[name].run_pass
    run_pass(inputs, null, gate)
    walls = {False: [], True: []}
    stats = []
    threads = _os_threads()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        on = traced and i % 2 == 1
        tr = tracer if on else null
        tracer.pass_id = i
        t0 = time.perf_counter()
        with tr.span("bench.pass"):
            stats.append(run_pass(inputs, tr, gate))
        walls[on].append(time.perf_counter() - t0)
        threads = max(threads, _os_threads())
        between()
        i += 1
        need = MIN_PASSES * (2 if traced else 1)
        if time.perf_counter() >= deadline and i >= need:
            break
    return walls, stats, tracer, threads


def layer_metrics(tracer):
    """Per-layer metrics: medians over the traced passes that produced them."""
    import tracing
    import workloads

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    passes = tracing.by_pass(spans, selfs)
    metrics = {}
    for metric, unit, read in workloads.LAYERS:
        values = []
        for summary in passes.values():
            try:
                values.append(float(read(summary)))
            except (KeyError, ZeroDivisionError):
                continue
        if values:
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    return metrics, spans, selfs


def run_one(args):
    import tracing
    import workloads

    gate = workloads.Gate()
    # Set-up probes run in the gaps between passes, so that their median
    # spans the same stretch of machine time as the passes do.
    probes = 1 if args.size == "tiny" else SETUP_PROBES
    setup = []

    def probe():
        if len(setup) < probes:
            setup.append(measure_setup(args.workload, args.seed, args.size))

    inputs = workloads.WORKLOADS[args.workload].make_inputs(args.seed, args.size, OUT)
    walls, stats, tracer, threads = run_passes(args.workload, inputs, args.seconds,
                                               bool(args.trace), gate, probe)
    while len(setup) < probes:
        probe()
    env = environment(workloads.mc_jobs())
    env["os_threads_max"] = threads
    plain = walls[False]
    q1, _, q3 = statistics.quantiles(plain, n=4)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "setup_s_samples": setup, "wall_s_samples": plain,
        "wall_s": {"median": statistics.median(plain), "q1": q1, "q3": q3, "n": len(plain)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    mc_seconds = sum(s.get("mc_seconds", 0.0) for s in stats)
    if mc_seconds > 0:
        record["mc_samples_per_s"] = sum(s["mc_samples"] for s in stats) / mc_seconds
    gate.check("Monte Carlo workers within nproc", env["mc_jobs"] <= env["nproc"],
               f"{env['mc_jobs']} workers on {env['nproc']} cores")

    if args.trace:
        for other in WORKLOAD_NAMES:
            if other == args.workload:
                continue
            other_inputs = workloads.WORKLOADS[other].make_inputs(args.seed, args.size, OUT)
            tracer.pass_id = f"{other}-0"
            with tracer.span("bench.pass"):
                workloads.WORKLOADS[other].run_pass(other_inputs, tracer, gate)
        metrics, spans, selfs = layer_metrics(tracer)
        metrics["bench.trace_overhead_frac"] = {
            "value": statistics.median(walls[True]) / statistics.median(plain) - 1.0,
            "unit": "ratio"}
        errors = tracing.nesting_errors(spans, selfs)
        gate.check("spans nest inside their parents", not errors, "; ".join(errors[:5]))
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        trace_path.write_text(json.dumps([
            {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
             "pass": sp.pass_id, "self_s": own, "counts": sp.counts}
            for sp, own in zip(spans, selfs)]))
        record["traced_wall_s_samples"] = walls[True]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    record["metrics"] = metrics
    record["attempted"], record["failed"] = gate.attempted, gate.failed
    record["fail_frac"] = gate.failed / max(1, gate.attempted)
    record["failures"] = gate.failures[:50]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for failure in gate.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    w = record["wall_s"]
    print(f"workload {args.workload}  seed {args.seed}  passes {w['n']}  "
          f"nproc {env['nproc']}  commit {env['git_commit'][:12]}")
    print(f"  setup_s          {statistics.median(setup):.6g} s  (median of {len(setup)})")
    print(f"  wall_s           {w['median']:.6g} s  (q1 {w['q1']:.6g}, q3 {w['q3']:.6g}, n {w['n']})")
    print(f"  fail_frac        {record['fail_frac']:.6g} ratio  ({gate.failed} of {gate.attempted})")
    print(f"  peak_rss_mb      {record['peak_rss_mb']:.6g} MB")
    if "mc_samples_per_s" in record:
        print(f"  mc_samples_per_s {record['mc_samples_per_s']:.6g} 1/s")
    if args.trace:
        for metric, entry in metrics.items():
            print(f"  {metric:<40} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is per workload."""
    worst, totals, metrics = 0, {"attempted": 0, "failed": 0}, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, done.returncode)
        result = json.loads(lines[-1]) if lines else {"attempted": 0, "failed": 1, "metrics": {}}
        for key in totals:
            totals[key] += result[key]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": totals["failed"] == 0 and worst == 0, **totals,
                      "metrics": metrics}))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, seconds per workload instead of minutes")
    args = parser.parse_args(argv)
    if not (SRC / "ensembleq" / "__init__.py").is_file():
        print(f"error: no ensembleq package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One process, at most nproc threads: BLAS/OpenMP pools are pinned to one
    # thread unless the caller set them, before numpy is first imported.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
