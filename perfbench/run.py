"""finslerlab benchmark: verification throughput, time to a verdict, cold start.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_closed --seed 0 --seconds 20 --trace 0

One client in one process runs a workload's jobs as a closed loop: each
job starts when the previous one has finished, with no extra threads.
Job sampling seeds derive from ``--seed``.  The timed phase repeats the
workload's job list in whole passes, as many as ``--seconds`` holds at
the baseline speed (``NOMINAL_PASS_S``), so every run of a workload and
``--seconds`` measures the same jobs; ``--seconds 0`` runs one pass and
one set-up, which is the smoke mode.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (see ``tracing.py``) next to an untraced pass
of the same jobs, which gives the tracing overhead.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``attempted`` counts timed jobs and ``failed`` the ones whose outcome
differs from the job's known answer; they are listed by id and reason.
``correct`` is false when one of the benchmark's own checks fails: a
JetSpace table built in the timed phase (the warm-up must build them all,
so that work moved out of set-up shows in ``setup_s``), a re-run of a job
or a later pass whose report is not byte-identical, a traced pass whose
reports differ from the untraced ones, or a trace that misses time.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported; set-up
# children inherit the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

# Seconds one pass of each workload's job list took at the baseline on a
# shared 2-vCPU x86-64 virtual machine (Python 3.11.7, numpy 2.4.6).
NOMINAL_PASS_S = {"sweep_closed": 6.5, "oracle_ad": 5.0, "cross_oracle": 1.3}
SETUP_REPS = 5
TAIL_ABOVE = 10            # jobs above the reported tail percentile
COVERAGE_TOLERANCE = 0.005  # traced self times vs. traced job wall time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=50,
                        help="sample points per job (1 for the smoke test)")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_setup(args, reps):
    """Wall time of fresh interpreters that import finslerlab and warm up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--points", str(args.points), "--setup-child"]
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=30)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return times


def table_count():
    """JetSpace objects plus the tables cached on them, seen from outside."""
    from finslerlab.jets import JetSpace

    count = 0
    for obj in gc.get_objects():
        if isinstance(obj, JetSpace):
            count += 1
            for val in vars(obj).values():
                if isinstance(val, tuple):
                    count += 1
                elif isinstance(val, dict):
                    count += sum(isinstance(v, tuple) for v in val.values())
    return count


def run_pass(jobs, scratch):
    import workloads

    return [workloads.run_job(job, scratch) for job in jobs]


def tail(times_ms):
    """Highest percentile with TAIL_ABOVE jobs above it: (value, pct, n)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0, n
    k = n - TAIL_ABOVE  # jobs at or below the reported value
    return ordered[k - 1], 100.0 * k / n, n


def digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(r.output)
    return h.hexdigest()


def report_failures(results):
    failed = [r for r in results if r.failure is not None]
    seen = set()
    for r in failed:
        if r.job.id not in seen:
            seen.add(r.job.id)
            print(f"failed job {r.job.id} (seed {r.job.seed}): {r.failure}")
    return len(failed)


def finish(checks, attempted, failed, metrics):
    """Print the checks and metrics, then the result line."""
    for ok, text in checks:
        print(("ok   " if ok else "FAIL ") + text)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": all(ok for ok, _ in checks),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(args, jobs, scratch):
    import workloads

    reps = SETUP_REPS if args.seconds > 0 else 1
    setup_times = measure_setup(args, reps)
    workloads.warm_up(jobs, scratch)
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    print(f"closed loop: 1 client, 1 process, {len(jobs)} jobs x {passes} "
          f"passes, {args.points} points per job")

    tables_before = table_count()
    results = []
    pass_rates = []
    for _ in range(passes):
        t0 = perf_counter()
        done = run_pass(jobs, scratch)
        pass_rates.append(sum(r.samples for r in done) / (perf_counter() - t0))
        results += done
    tables_built = table_count() - tables_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = []
    checks.append((tables_built == 0,
                   f"warm-up check: {tables_built} JetSpace tables built in "
                   "the timed phase"))
    first = results[:len(jobs)]
    repeats_equal = all(
        r.output == first[i % len(jobs)].output for i, r in enumerate(results))
    checks.append((repeats_equal,
                   f"determinism: {passes} passes byte-identical"))
    pick = args.seed % len(jobs)
    rerun = workloads.run_job(jobs[pick], scratch)
    checks.append((rerun.output == first[pick].output,
                   f"rerun: job {jobs[pick].id} at seed {jobs[pick].seed} "
                   "byte-identical"))

    times_ms = [1000.0 * r.seconds for r in results]
    tail_ms, tail_pct, n = tail(times_ms)
    failed = report_failures(results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (statistics.median(pass_rates), "1/s"),
        "job_ms_p50": (statistics.median(times_ms), "ms"),
        "job_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print("setup_s runs: " + ", ".join(f"{t:.4f}" for t in setup_times))
    print("samples_per_s by pass: " + ", ".join(f"{r:.1f}" for r in pass_rates))
    print(f"job_ms_tail is p{tail_pct:.1f} of {n} jobs ({TAIL_ABOVE} above it)")
    print(f"failed_frac: {failed / len(results)} ({failed} of {len(results)} jobs)")
    print(f"report digest (pass 1, job order): sha256 {digest(first)}")
    finish(checks, len(results), failed, metrics)


def traced_run(args, jobs, scratch):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        unpatched = tracer.unpatched_bindings()
        tracer.job = "warm-up"
        workloads.warm_up(jobs, scratch)
    finally:
        tracer.uninstall()
    setup_stats = {k: tuple(v) for k, v in tracer.stats.items()}
    tracer.reset()

    t0 = perf_counter()
    plain = run_pass(jobs, scratch)
    plain_s = perf_counter() - t0

    traced, coverage = [], []
    tracer.install()
    try:
        t0 = perf_counter()
        for job in jobs:
            tracer.job = job.id
            before = tracer.total_self()
            traced.append(workloads.run_job(job, scratch))
            coverage.append((tracer.total_self() - before) / traced[-1].seconds)
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    coverage = statistics.median(coverage)
    same = [a.output == b.output for a, b in zip(plain, traced)]
    metrics = tracer.layer_metrics(setup_stats)
    samples = sum(r.samples for r in traced)
    metrics["trace.samples_per_s"] = (samples / traced_s, "1/s")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.coverage"] = (coverage, "ratio")

    WORK_DIR.mkdir(exist_ok=True)
    trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                              "points": args.points})
    checks = [
        (not unpatched, "trace completeness: every binding patched"
         + (f" (unpatched: {', '.join(unpatched)})" if unpatched else "")),
        (abs(coverage - 1.0) <= COVERAGE_TOLERANCE,
         f"trace coverage: layer self times are {coverage:.4f} of the wall "
         "time of the median traced job"),
        (metrics["jets.timed_table_builds"][0] == 0,
         "warm-up check: no JetSpace table built in the traced pass"),
        (all(same), "traced reports byte-identical to untraced reports"),
    ]
    if tracer.missing:
        print("hooks not found: " + ", ".join(tracer.missing))
    failed = report_failures(traced)
    print(f"trace written to {trace_path.relative_to(ROOT)} "
          f"({sum(s is not None for s in tracer.spans)} spans)")
    print(f"report digest (job order): sha256 {digest(traced)}")
    finish(checks, len(traced), failed, metrics)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finslerlab" / "__init__.py").is_file():
        print(f"error: no finslerlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.points < 1 or args.seconds < 0:
        print("error: --points must be >= 1 and --seconds >= 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    jobs = workloads.build_jobs(args.workload, args.seed, args.points)
    scratch = WORK_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_child:
            workloads.warm_up(jobs, scratch)
            return 0
        print(f"finslerlab benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env: " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            traced_run(args, jobs, scratch)
        else:
            untraced_run(args, jobs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
