"""Run one workload of the operad-forge benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in workloads.py.  The run starts rounds of jobs while
it expects them to end within S seconds, checks every job's output, and prints as the last
line of standard output one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the jobs run with every public function
of the package wrapped (tracer.py) and the metrics are the per-layer ones.
Lines before the last one are informational and start with `#`.
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
import traceback
from pathlib import Path

from tracer import Tracer, import_all, layer_metrics, read_trace
from workloads import OUT_DIR, ROOT, SRC, WORKLOADS, child_env

SETUP_SAMPLES = 7
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
IMPORT_TIMER = ("import time; t = time.perf_counter(); "
                "import operad_forge.cli; print(time.perf_counter() - t)")


def load_package() -> None:
    """Import operad_forge from this checkout's src/ and nowhere else."""
    package = SRC / "operad_forge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no operad_forge sources in {package}")
    sys.path.insert(0, str(SRC))
    import operad_forge

    import_all()
    if Path(operad_forge.__file__).resolve().parent != package:
        sys.exit(f"perfbench: operad_forge was imported from "
                 f"{operad_forge.__file__}, not from {package}")


def import_seconds() -> float:
    """Time to import operad_forge.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                          capture_output=True, text=True, check=True,
                          env=child_env(), cwd=ROOT, timeout=60)
    return float(proc.stdout)


def drive(workload, seed: int, seconds: float, tracer, setup_samples: int):
    """Closed loop, one job at a time.

    Between rounds, paced over the run, it also times `setup_samples`
    imports, so that setup time is measured on the machine as the jobs
    found it.  Returns the job latencies, the number of failed jobs and the
    import times.
    """
    latencies, failed, setup = [], 0, []
    start = time.perf_counter()
    for n_rounds, jobs in enumerate(workload.rounds(seed), 1):
        for spec in jobs:
            job = len(latencies)
            sid = tracer.begin_job(job) if tracer else None
            ok = False
            t0 = time.perf_counter()
            try:
                out = workload.run_job(spec)
                ok = True
            except Exception:
                traceback.print_exc()
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_job(sid)
                tracer.active = False
            if ok:
                try:
                    ok = workload.check(spec, out)
                except Exception:
                    traceback.print_exc()
                    ok = False
            if tracer:
                tracer.active = True
            if not ok:
                failed += 1
                print(f"perfbench: job {job} failed: {spec!r}",
                      file=sys.stderr)
        elapsed = time.perf_counter() - start
        if len(setup) < setup_samples * min(1.0, elapsed / seconds):
            setup.append(import_seconds())
        if elapsed * (n_rounds + 1) / n_rounds > seconds:
            break
    while len(setup) < setup_samples:
        setup.append(import_seconds())
    return latencies, failed, setup


def tail(latencies: list[float]):
    """The highest percentile with at least ten jobs beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            rank = -(-q * n // 100)  # nearest rank
            return q, ordered[int(rank) - 1]
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_package()
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](traced=bool(args.trace))
    tracer = None
    if args.trace and workload.in_process:
        tracer = Tracer()
        tracer.install()
    if not args.trace:
        import_seconds()  # may write the bytecode cache, which users pay once
    latencies, failed, setup = drive(workload, args.seed, args.seconds, tracer,
                                     0 if args.trace else SETUP_SAMPLES)
    attempted = len(latencies)
    jobs_per_s = (attempted - failed) / sum(latencies)

    print(f"# env: python {platform.python_version()}, {platform.platform()}"
          f", nproc {os.cpu_count()}, loadavg "
          + " ".join(f"{x:.2f}" for x in os.getloadavg()))
    print(f"# failed_frac: {failed / attempted} ({failed}/{attempted} jobs)")
    if args.trace:
        if tracer:
            tracer.uninstall()
            tracer.write(OUT_DIR / f"{workload.name}.bin")
            traces = [tracer.dump()]
        else:
            traces = [read_trace(f) for f in workload.trace_files
                      if f.exists()]
        metrics = {name: metric(v, unit) for name, (v, unit)
                   in layer_metrics(traces, attempted).items()}
        metrics["trace.jobs_per_s"] = metric(jobs_per_s, "1/s")
    else:
        who = (resource.RUSAGE_SELF if workload.in_process
               else resource.RUSAGE_CHILDREN)
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        found = tail(latencies)
        if found:
            print(f"# job_tail_s: p{found[0]} = {found[1]:.4f} s "
                  f"over {attempted} jobs")
        else:
            print(f"# job_tail_s: omitted, {attempted} jobs leave fewer than "
                  f"ten beyond p{TAIL_PERCENTILES[-1]}")
        metrics = {
            "jobs_per_s": metric(jobs_per_s, "1/s"),
            "job_p50_s": metric(statistics.median(latencies), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
