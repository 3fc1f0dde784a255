"""Command-line front end: solve / eval / verify / normalize.

Exit codes: 0 ok, 2 invalid input (a size too large to allocate and an
unwritable --out included), 3 constraint or solvability violation, 4
convergence failure, 5 verification failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from anharm2d.closed_form import (
    ClosedFormState,
    Level,
    PotentialParams,
    SolvabilityError,
    constrained_state,
    excited_solve,
    radial_eval,
)
from anharm2d.numeric import (
    MIN_GRID_POINTS,
    ConvergenceError,
    build_grid,
    normalization_constant,
    verify,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONSTRAINT = 3
EXIT_CONVERGENCE = 4
EXIT_VERIFY_FAILED = 5

# argparse reads an exponent-form negative such as -1.2e-05 as an option of
# its own, so main joins each of these options with a float value that
# follows it ("--b=-1.2e-05") before parsing
FLOAT_OPTIONS = ("--a", "--b", "--c", "--r-min", "--r-max")


def _resolve_state(args) -> tuple[ClosedFormState, PotentialParams]:
    """The requested closed-form state and its parameters: the joint solve's
    own state when only --a is given, else constrained_state's for explicit --c/--b."""
    if (args.c is None) != (args.b is None):
        raise ValueError("--c and --b must be given together")
    if args.c is None:
        joint = excited_solve(args.a, args.m)
        return getattr(joint, args.state), joint.params
    params = PotentialParams(a=args.a, b=args.b, c=args.c)
    return constrained_state(params, args.m, Level(args.state)), params


def _write_text(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    joint = excited_solve(args.a, args.m)
    g, x = joint.ground, joint.excited
    doc = {
        "a": joint.params.a,
        "m": joint.m,
        "c": joint.params.c,
        "b": joint.params.b,
        "kappa": g.kappa,
        "kappa1": x.kappa,
        "E0": g.energy,
        "E1": x.energy,
        "a1": x.poly_c0,
        "a2": x.poly_c2,
        "a3": x.poly_cm2,
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    state, params = _resolve_state(args)
    grid = build_grid(params, MIN_GRID_POINTS)  # only its interval is used
    r_min = grid.r_min if args.r_min is None else args.r_min
    r_max = grid.r_max if args.r_max is None else args.r_max
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise ValueError(f"--r-min and --r-max must be finite, got [{r_min}, {r_max}]")
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    if args.samples > sys.maxsize // 8:  # as in RadialGrid.points; near 2^63 linspace ends in an IndexError
        raise ValueError(f"too many samples to allocate: {args.samples}")
    r = np.linspace(r_min, r_max, args.samples)
    values = radial_eval(state, r)
    # a curve on the default interval is refused where normalize would be
    # (exit 4, the interval cuts or misses the state); an explicit --r-min
    # or --r-max is the user's choice
    if args.normalize or (args.r_min is None and args.r_max is None):
        n = normalization_constant(state, grid)
        if args.normalize:
            values = values * n
    rows = np.column_stack((r, values)).ravel()  # r_0, R_0, r_1, R_1, ...
    _write_text(args.out, "r,R\n" + "%.9g,%.9g\n" * args.samples % tuple(rows.tolist()))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify(args.a, args.m, args.grid_n)
    _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_normalize(args) -> int:
    state, params = _resolve_state(args)
    grid = build_grid(params, MIN_GRID_POINTS)  # only its interval is used
    n = normalization_constant(state, grid)
    doc = {"integral": n**-2, "N": n}
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


@functools.cache  # built on the first call: a build costs ~15 parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anharm2d",
        description="Exact and numerical bound states for V(r) = a r^2 + b r^-4 + c r^-6 in 2D.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, with_state=False):
        # no prefix matching: the full names in FLOAT_OPTIONS are the only spellings
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--a", type=float, required=True, help="harmonic strength (> 0)")
        p.add_argument("--m", type=int, default=0, help="angular momentum (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if with_state:
            p.add_argument("--state", choices=["ground", "excited"], default="ground")
            p.add_argument("--c", type=float, default=None, help="explicit r^-6 coefficient")
            p.add_argument("--b", type=float, default=None, help="explicit r^-4 coefficient")
        return p

    command("solve", "joint closed-form configuration for given a, m")

    p = command("eval", "emit a wavefunction curve as CSV", with_state=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--normalize", action="store_true")

    p = command("verify", "numerical cross-check, JSON report")
    p.add_argument("--grid-n", type=int, default=4000)

    command("normalize", "normalization integral and constant", with_state=True)

    return parser


def _join_float_values(argv: list) -> list:
    joined = []
    for arg in argv:
        if joined and joined[-1] in FLOAT_OPTIONS and _is_float(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_float_values(argv))
    try:
        # the cmd_* function is looked up now, not when the parser was built,
        # so that one replaced on the module (by a test or a tracer) is called
        return globals()[f"cmd_{args.command}"](args)
    except (ConvergenceError, ValueError, MemoryError, OSError) as exc:  # SolvabilityError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SolvabilityError):
            return EXIT_CONSTRAINT
        return EXIT_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
