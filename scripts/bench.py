#!/usr/bin/env python3
"""Put the benchmark on the record: run perfbench/run.py over every workload,
untraced (end-to-end metrics) and traced (per-layer metrics), and write
BENCH_<label>.json.

Usage: python scripts/bench.py [--label local] [--seconds 30]
                               [--out-dir <repository root>]

The file holds, per workload and per run: perfbench's result (correct,
attempted, failed, metrics) and its stderr summary up to the machine-speed
line, which carries the raw wall-time medians and the machine speed. It
also records the git commit (and whether the tree differed from it) and the
Python, numpy and platform versions.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "fine", "curves")
SEED = 1  # one fixed command order, so that records compare like with like


def git(*args: str):
    """Output of a git command in the repository, or None outside a checkout."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run(workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run: its JSON result plus the summary lines of its report."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench/run.py --workload {workload} --trace {trace} "
                         f"exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = []
    for line in done.stderr.splitlines():
        report.append(line)
        if line.lstrip().startswith("machine speed:"):
            break
    result["report"] = report
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="local", help="the file is BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of each run")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    status = git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = {name: run(workload, args.seconds, trace)
                for name, trace in (("untraced", 0), ("traced", 1))}
        record["workloads"][workload] = runs
        for name, result in runs.items():
            print(f"{workload:7} {name:9} attempted {result['attempted']:4d} "
                  f"failed {result['failed']:4d}", file=sys.stderr)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
