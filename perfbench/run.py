#!/usr/bin/env python3
"""Benchmark of the anharm2d command, driven the way its users drive it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,fine,curves} --seed N \
        --seconds S --trace {0,1}

The program is imported from the checkout's src/ and anharm2d.cli.main is
called in process, from one thread, in a closed loop: each command starts
when the previous one has returned. Workloads are made of whole rounds, one
pass over the workload's commands in an order drawn from --seed, repeated
until --seconds have passed. Every output is checked against the oracle and
the method's properties outside the timed region.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A readable summary goes to stderr.
"""

import os

# One BLAS and OpenMP thread, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import checks
from oracle import STATES, JointConfig
from spans import SpanStats, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sweep", "fine", "curves")
CONFIGS = tuple((a, m) for a in (0.25, 1.0, 4.0, 10.0) for m in (0, 1))
SETUP_REPEATS = 7

# The host is shared: neighbours slow the whole machine by up to ~40% for
# minutes at a time, which no statistic over one run cancels. So every timing
# is rescaled by the machine's speed while it was taken, measured by a fixed
# pure-Python loop that slows with the program: times are reported at the
# loop's unloaded speed on the reference machine (see README).
REFERENCE_ITERATIONS = 10_000
REFERENCE_S = 0.00041  # unloaded time of one reference loop
SAMPLE_PERIOD_S = 0.1

END_TO_END = {"setup_s": "s", "command_s": "s", "points_per_s": "points/s"}
PER_LAYER = {
    "cli.self_ms": "ms",
    "closed_form.self_ms": "ms",
    "numeric.self_ms": "ms",
    "closed_form.radial_eval.ns_per_point": "ns",
    "closed_form.excited_solve.us": "us",
    "numeric.quadrature.ms": "ms",
    "numeric.quadrature.points": "count",
    "numeric.sturm_count.calls_per_eigenvalue": "count",
    "numeric.sturm_count.pct": "%",
    "numeric.lowest_eigenvalues.self_pct": "%",
    "numeric.assemble.pct": "%",
    "numeric.node_count.pct": "%",
    "numeric.verify.self_pct": "%",
    "cli.eval.self_pct": "%",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads; the smoke test shrinks them."""

    sweep_n: int = 4000
    fine_n: int = 64000
    samples: int = 20000


@dataclass(frozen=True)
class Op:
    """One anharm2d command: verify (size = grid n), eval (size = samples)
    or normalize."""

    kind: str
    a: float
    m: int
    state: str = ""
    size: int = 0

    def argv(self, out: str) -> list:
        argv = [self.kind, "--a", repr(self.a), "--m", str(self.m), "--out", out]
        if self.kind == "verify":
            return argv + ["--grid-n", str(self.size)]
        argv += ["--state", self.state]
        if self.kind == "eval":
            argv += ["--samples", str(self.size), "--normalize"]
        return argv

    @property
    def points(self) -> int:
        """Grid points verify diagonalises (n/4 + n/2 + n), rows eval writes."""
        if self.kind == "verify":
            return max(16, self.size // 4) + max(16, self.size // 2) + self.size
        return self.size if self.kind == "eval" else 0


@dataclass(frozen=True)
class Outcome:
    op: Op
    seconds: float  # wall time of the command, less the speed samples taken in it
    checks: list

    @property
    def failed(self) -> bool:
        return not all(c.ok for c in self.checks)


@dataclass(frozen=True)
class Round:
    outcomes: list
    scale: float  # REFERENCE_S over the mean reference loop time during the round


def reference_loop() -> float:
    """Seconds taken by a fixed float recurrence, the kind of work the
    program's Sturm passes and CSV formatting do in the interpreter."""
    start = time.perf_counter()
    q, negative = 1.0, 0
    for _ in range(REFERENCE_ITERATIONS):
        q = 2.5 - 1.0 / q
        if q < 0.0:
            negative += 1
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the machine's speed every SAMPLE_PERIOD_S, from a SIGALRM
    handler that runs between the program's bytecodes, so long commands are
    sampled while they run."""

    def __init__(self):
        self.durations = []
        self.busy = 0.0  # seconds spent sampling, taken out of command times
        self._sampling = False

    def sample(self, *_) -> None:
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        start = time.perf_counter()
        self.durations.append(reference_loop())
        self.busy += time.perf_counter() - start
        self._sampling = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def open(self) -> int:
        """Take a sample that opens an interval; returns its index."""
        self.sample()
        return len(self.durations) - 1

    def scale(self, first: int) -> float:
        """Take a sample that closes the interval opened at `first`; returns
        REFERENCE_S over the interval's mean sample."""
        self.sample()
        return REFERENCE_S / statistics.fmean(self.durations[first:])


def build_round(workload: str, seed: int, sizes: Sizes) -> list:
    """The commands of one round. The seed orders the configuration cycle;
    `fine` has one configuration and does not depend on it."""
    rng = random.Random(seed)
    configs = list(CONFIGS)
    rng.shuffle(configs)
    if workload == "sweep":
        return [Op("verify", a, m, size=sizes.sweep_n) for a, m in configs]
    if workload == "fine":
        return [Op("verify", 1.0, 0, size=sizes.fine_n)]
    ops = [Op(kind, a, m, state, sizes.samples if kind == "eval" else 0)
           for a, m in configs for state in STATES for kind in ("eval", "normalize")]
    rng.shuffle(ops)
    return ops


def load_program():
    """Import anharm2d.cli from the checkout's src/, and from nowhere else."""
    if not (SRC / "anharm2d" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'anharm2d'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import anharm2d.cli

    if Path(anharm2d.cli.__file__).resolve().parent != SRC / "anharm2d":
        raise SystemExit(f"error: anharm2d was imported from {anharm2d.cli.__file__}, not {SRC}")
    return anharm2d.cli


def check_output(op: Op, code, out: Path, cfg: JointConfig) -> list:
    try:
        text = out.read_text(encoding="utf-8")
        if op.kind == "verify":
            return checks.check_verify(text, code, cfg, op.size)
        if op.kind == "eval":
            return checks.check_eval(text, code, cfg, op.state, op.size)
        return checks.check_normalize(text, code, cfg, op.state)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        return [checks.equals("exit", code, checks.EXIT_OK),
                checks.equals("output", repr(exc), "a well-formed output file")]


def run_op(cli, op: Op, workdir: Path, configs: dict, meter: SpeedMeter) -> Outcome:
    out = workdir / f"out.{op.kind}"
    out.unlink(missing_ok=True)
    argv = op.argv(str(out))
    busy = meter.busy
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception:  # a traceback from the program is a failed operation
        code = "traceback"
        traceback.print_exc()
    seconds = time.perf_counter() - start - (meter.busy - busy)
    return Outcome(op, seconds, check_output(op, code, out, configs[op.a, op.m]))


def run_rounds(cli, ops: list, seconds: float, workdir: Path, configs: dict,
               meter: SpeedMeter) -> list:
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        first = meter.open()
        outcomes = [run_op(cli, op, workdir, configs, meter) for op in ops]
        rounds.append(Round(outcomes, meter.scale(first)))
    return rounds


def warm_up(cli, ops: list, workdir: Path) -> None:
    """One tiny, untimed and unchecked command of each kind in the round, so
    that lazy imports and first-call set-up are done before timing."""
    tiny = {"verify": 64, "eval": 100, "normalize": 0}
    for op in {op.kind: op for op in ops}.values():
        cli.main(replace(op, size=tiny[op.kind]).argv(str(workdir / "warm-up")))


def setup_s(meter: SpeedMeter) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the wall time from
    start until anharm2d.cli is imported, at reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        first = meter.open()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import anharm2d.cli"], env=env, cwd=ROOT, check=True)
        wall = time.perf_counter() - start
        times.append(wall * meter.scale(first))
    return statistics.median(times)


def command_s(rounds: list) -> float:
    """Median over rounds of the geometric mean of the round's command times,
    so that every kind of command in a round weighs the same; at reference
    speed."""
    return statistics.median(
        r.scale * math.exp(statistics.fmean(math.log(o.seconds) for o in r.outcomes))
        for r in rounds
    )


def points_per_s(rounds: list) -> float:
    """Median over rounds of points per second of the commands that have
    points (grid points for verify, CSV rows for eval), at reference speed."""
    return statistics.median(
        sum(o.op.points for o in r.outcomes)
        / (r.scale * sum(o.seconds for o in r.outcomes if o.op.points))
        for r in rounds
    )


def layer_metrics(stats: SpanStats, plain_s: float, traced_s: float) -> dict:
    commands = stats.calls["cli.main"]
    wall = stats.total["cli.main"]
    sturm = stats.calls.get("numeric.sturm_count", 0)
    eigenvalues = stats.work.get("numeric.lowest_eigenvalues", 0)
    quad = "numeric.quadrature"
    radial = "closed_form.radial_eval"
    solve = "closed_form.excited_solve"

    def pct(name: str, table: dict) -> float:
        return 100.0 * table.get(name, 0.0) / wall

    return {
        "cli.self_ms": 1e3 * stats.layer_self("cli") / commands,
        "closed_form.self_ms": 1e3 * stats.layer_self("closed_form") / commands,
        "numeric.self_ms": 1e3 * stats.layer_self("numeric") / commands,
        "closed_form.radial_eval.ns_per_point": 1e9 * stats.total[radial] / stats.work[radial],
        "closed_form.excited_solve.us": 1e6 * stats.total[solve] / stats.calls[solve],
        "numeric.quadrature.ms": 1e3 * stats.total[quad] / stats.calls[quad],
        "numeric.quadrature.points": stats.work[quad] / stats.calls[quad],
        "numeric.sturm_count.calls_per_eigenvalue": sturm / eigenvalues if eigenvalues else 0,
        "numeric.sturm_count.pct": pct("numeric.sturm_count", stats.total),
        "numeric.lowest_eigenvalues.self_pct": pct("numeric.lowest_eigenvalues", stats.self_time),
        "numeric.assemble.pct": pct("numeric.assemble", stats.total),
        "numeric.node_count.pct": pct("numeric.node_count", stats.total),
        "numeric.verify.self_pct": pct("numeric.verify", stats.self_time),
        "cli.eval.self_pct": pct("cli.eval", stats.self_time),
        "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
    }


def summarize(outcomes: list) -> str:
    """Median time and rate of each kind of command, and every failed check."""
    lines = []
    for kind in ("verify", "eval", "normalize"):
        mine = [o for o in outcomes if o.op.kind == kind]
        if not mine:
            continue
        line = (f"  {kind:9} {len(mine):5d} commands  median "
                f"{statistics.median(o.seconds for o in mine):.6f} s")
        if mine[0].op.points:
            rate = sum(o.op.points for o in mine) / sum(o.seconds for o in mine)
            line += f"  {rate:.0f} {'grid points' if kind == 'verify' else 'rows'}/s"
        lines.append(line)
    failures = {}
    for o in outcomes:
        for c in o.checks:
            if not c.ok:
                failures.setdefault(c.name, []).append((o.op, c))
    for name, items in sorted(failures.items()):
        op, c = items[0]
        lines.append(f"  FAILED {name} x{len(items)}: value {c.value!r} bound {c.bound!r} "
                     f"(first: {' '.join(op.argv('-'))})")
    return "\n".join(lines)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()):
    """Run one workload; returns (result dict, readable report)."""
    cli = load_program()
    ops = build_round(workload, seed, sizes)
    configs = {cfg: JointConfig(*cfg) for cfg in CONFIGS}
    OUT_DIR.mkdir(exist_ok=True)
    report = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        warm_up(cli, ops, workdir)
        meter = SpeedMeter()
        if not trace:
            with meter.running():
                setup = setup_s(meter)
                rounds = run_rounds(cli, ops, seconds, workdir, configs, meter)
            values = {"setup_s": setup, "command_s": command_s(rounds),
                      "points_per_s": points_per_s(rounds)}
            units = END_TO_END
        else:
            tracer = Tracer()
            with meter.running():
                plain = run_rounds(cli, ops, seconds / 2, workdir, configs, meter)
                with installed(tracer):
                    traced = run_rounds(cli, ops, seconds / 2, workdir, configs, meter)
            spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write(spans_path)
            stats = SpanStats(tracer.spans)
            values = layer_metrics(stats, command_s(plain), command_s(traced))
            units = PER_LAYER
            rounds = plain + traced
            report += [stats.table(), f"spans written to {spans_path}"]
    outcomes = [o for r in rounds for o in r.outcomes]
    result = {
        "correct": all(c.ok or c.name == checks.NAMED_FAULT for o in outcomes for c in o.checks),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report.insert(1, f"  {len(rounds)} rounds of {len(ops)} commands  attempted "
                     f"{result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    report.insert(2, summarize(outcomes))
    report.insert(3, f"  machine speed: {100 * statistics.median(r.scale for r in rounds):.0f}% "
                     "of reference; the times above are wall times, the metrics below are "
                     "at reference speed")
    report += [f"  {name:42} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return result, "\n".join(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
