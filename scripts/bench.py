#!/usr/bin/env python3
"""Put a before/after comparison of the benchmark on the record: run
perfbench/run.py over every workload on this checkout and on revision REV,
in alternating pairs, and write BENCH_<label>.json.

Usage: python scripts/bench.py [--parent HEAD] [--pairs 10] [--seconds 30]
                               [--label local] [--out-dir <repository root>]

REV is unpacked with git archive into a temporary directory; its perfbench/
must be the same as this checkout's. For each workload, --pairs pairs of
untraced runs (end-to-end metrics) alternate which tree goes first, each
pair on its own seed, and one traced run per tree (per-layer metrics)
follows. Per end-to-end metric the record holds each tree's per-pair
values, median and quartiles, and how many pairs the checkout won (ties
count for neither side). A pair in which either run exited nonzero or
reported failed operations is left out of every comparison, and the record
counts the latter as pairs_with_failed_operations. Per run it holds
perfbench's result (correct, attempted, failed, metrics), the exit status
of run.py and its stderr summary up to the machine-speed line, which
carries the raw wall-time medians and the machine speed. It also records
the git commit (and whether the tree differed from it) and the Python,
numpy and platform versions.

The script exits 1, after writing the record, if any run of run.py exited
nonzero or reported a failed operation.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

from same_outputs import unpack

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "fine", "curves")
PAIR_SEED = 1000  # pair i runs on seed PAIR_SEED + i


def git(*args: str):
    """Output of a git command in the repository, or None outside a checkout."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its exit status, its JSON result and the
    summary lines of its report (all of stderr if it failed)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench/run.py --workload {workload} --seed {seed} --trace {trace} in {tree} "
              f"exited {done.returncode}", file=sys.stderr)
        return {"exit": done.returncode, "report": done.stderr.splitlines()}
    result = {"exit": 0, **json.loads(done.stdout.strip().splitlines()[-1])}
    report = []
    for line in done.stderr.splitlines():
        report.append(line)
        if line.lstrip().startswith("machine speed:"):
            break
    result["report"] = report
    return result


def perfbench_files(tree: Path) -> dict:
    """The contents of every file under tree's perfbench/, bytecode caches aside."""
    base = tree / "perfbench"
    return {path.relative_to(base).as_posix(): path.read_bytes()
            for path in sorted(base.rglob("*")) if path.is_file() and "__pycache__" not in path.parts}


def spread(values: list) -> dict:
    """The values with their median and lower and upper quartiles."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values),
            "quartiles": [quartiles[0], quartiles[2]]}


def paired(parent: Path, workload: str, pairs: int, seconds: float, better: dict) -> dict:
    """Alternating parent and checkout runs of one workload, and their comparison."""
    trees = {"parent": parent, "change": ROOT}
    seeds = [PAIR_SEED + i for i in range(pairs)]
    orders = [("parent", "change"), ("change", "parent")]
    runs = {side: [] for side in trees}
    for i, seed in enumerate(seeds):
        for side in orders[i % 2]:
            runs[side].append(run(trees[side], workload, seed, seconds, 0))
    traced = {side: run(trees[side], workload, PAIR_SEED, seconds, 1) for side in trees}
    kept = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p["exit"] == c["exit"] == 0]
    valid = [(p, c) for p, c in kept if not (p["failed"] or c["failed"])]
    metrics = {}
    for name, direction in better.items():
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in valid]
        sign = 1.0 if direction == "lower" else -1.0
        metrics[name] = {
            "better": direction,
            "parent": spread([p for p, _ in values]) if values else None,
            "change": spread([c for _, c in values]) if values else None,
            "pairs_better": sum(sign * (p - c) > 0.0 for p, c in values),
            "pairs": len(values),
        }
    return {"seeds": seeds, "first": [orders[i % 2][0] for i in range(pairs)],
            "pairs_with_failed_operations": len(kept) - len(valid),
            "metrics": metrics, "runs": runs, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="local", help="the file is BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of each run")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    parser.add_argument("--parent", metavar="REV", default="HEAD", help="the revision to compare with")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    status = git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "seconds": args.seconds,
        "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
        "pairs": args.pairs,
        "workloads": {},
    }
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        unpack(args.parent, parent)
        if perfbench_files(parent) != perfbench_files(ROOT):
            raise SystemExit(f"error: perfbench/ at {args.parent} differs from this checkout's; "
                             "both sides must run the same benchmark")
        for workload in WORKLOADS:
            record["workloads"][workload] = entry = paired(
                parent, workload, args.pairs, args.seconds, better)
            for name, m in entry["metrics"].items():
                if m["pairs"]:
                    print(f"{workload:7} {name:12} parent {m['parent']['median']:.6g} "
                          f"({m['parent']['quartiles'][0]:.6g}-{m['parent']['quartiles'][1]:.6g}) "
                          f"change {m['change']['median']:.6g} "
                          f"({m['change']['quartiles'][0]:.6g}-{m['change']['quartiles'][1]:.6g}) "
                          f"better in {m['pairs_better']}/{m['pairs']} pairs", file=sys.stderr)
    results = [result for entry in record["workloads"].values()
               for result in [*entry["runs"]["parent"], *entry["runs"]["change"], *entry["traced"].values()]]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 1 if any(result["exit"] or result["failed"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
