"""Print every end-to-end metric of every workload, by name and with its unit.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME]...

For each workload it makes one untraced run and one traced run of run.py.
It prints the end-to-end metrics named in BENCHMARK.json, the failed
fraction (failed jobs over attempted jobs), the tail latency where the run
has enough jobs for one, and the tracing overhead: traced minus untraced
jobs_per_s.  It exits with 1 if any job failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS

RUN = Path(__file__).with_name("run.py")


def run(workload: str, seed: int, seconds: int, trace: int):
    """Informational lines and the result object of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.splitlines()
    info = dict(line[2:].split(": ", 1) for line in lines[:-1]
                if line.startswith("# "))
    return info, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    all_correct = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        info, plain = run(workload, args.seed, args.seconds, 0)
        _, traced = run(workload, args.seed, args.seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        print(f"{workload}  (seed {args.seed}, {args.seconds} s, "
              f"{info['env']})")
        for m in spec["end_to_end"]:
            value = plain["metrics"][m["name"]]
            print(f"  {m['name']:<14} {value['value']:>12.6g} {value['unit']}")
        print(f"  {'failed_frac':<14} {plain['failed'] / plain['attempted']:>12.6g}"
              f" frac  ({plain['failed']}/{plain['attempted']} jobs)")
        print(f"  {'job_tail_s':<14} {info['job_tail_s']}")
        untraced = plain["metrics"]["jobs_per_s"]["value"]
        overhead = traced["metrics"]["trace.jobs_per_s"]["value"] - untraced
        print(f"  {'trace_overhead':<14} {overhead:>12.6g} 1/s  (traced minus "
              f"untraced jobs_per_s, {overhead / untraced:+.1%})")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
