#!/usr/bin/env python3
"""Check that this checkout's program gives the same outputs as revision REV,
or as a committed record of them.

Usage: python scripts/same_outputs.py REV
       python scripts/same_outputs.py --record FILE
       python scripts/same_outputs.py --check FILE

A fresh interpreter imports anharm2d from a tree's src/ and runs a fixed set
of CLI commands in process: solve, eval with and without --normalize,
normalize and verify over a spread of a (0.25 to 10, and 1e-300 to 1e300),
m in {0, 1} and verify grids from 64 to 64000 points. Then eval and
normalize on the paths that sweep misses (few --samples, an explicit
--r-min/--r-max, explicit --c/--b on both kappa branches), and the command
of every row of OUTCOMES, the CLI's documented outcomes, which
tests/test_cli.py asserts.

With REV (a commit, branch or tag), the revision is unpacked with git
archive into a temporary directory and each command's exit code and stdout
and stderr text are compared byte for byte. --record FILE writes this
checkout's outputs to FILE, one command per line. --check FILE compares
this checkout with that record: exit codes, stderr, keys, integers and
strings exactly, but a float within a stated tolerance (same()),
since NumPy's exp and log, and the BLAS behind a dot product, may round
differently on another CPU. Every difference is listed, and the script
exits 1 if there is any, 0 otherwise.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
A_VALUES = ("0.25", "1", "4", "10", "1e-6", "1e6", "1e-200", "1e200", "1e-300", "1e300")
VERIFY_N = (64, 65, 257, 1000, 4000, 16000, 64000)  # from 4000 up, tails are solved by cyclic reduction
# explicit --c/--b: (a, m) = (1, 0) on the plus and the minus kappa branch,
# (1, 1) on the plus branch, and the joint states of a = 1e12 and a = 1
EXPLICIT = (
    ("--state", "ground", "--a", "1", "--c", "1", "--b", "0.8284271247461903"),
    ("--state", "ground", "--a", "1", "--c", "1", "--b", "-4.82842712474619"),
    ("--state", "ground", "--a", "1", "--m", "1", "--c", "1", "--b", "1.4641016151377544"),
    ("--state", "ground", "--a", "1e12", "--c", "4e-12", "--b", "-1.2e-05"),
    ("--state", "excited", "--a", "1", "--c", "4", "--b=-12"),
)
# The CLI's documented outcomes, one row each: (test id, argv, exit code, a
# phrase stderr must contain). tests/test_cli.py asserts every row under its
# id, "Class::test" or "Class::test[case]", and commands() compares each with
# REV. An exit 0 has empty stderr; exits 2, 3 and 4 have empty stdout.
GROUND_A1_C1 = ("--state", "ground", "--a", "1", "--c", "1")
GROUND_M2 = ("--state", "ground", "--a", "2.6034814692355e+243", "--m", "2", "--c", "4.657280431813428e-242")
GROUND_M300 = ("--state", "ground", "--a", "1e6", "--c", "1e-6", "--m", "300", "--b", "0.59800666662963")
NEGATIVE_M = ("--a", "1", "--c", "2.25", "--b", "-9", "--m", "-1")
BIG_M = "1" + "0" * 160
OUTCOMES = (
    ("TestSolve::test_joint_configuration_exits_0", ("solve", "--a", "1", "--m", "0"), 0, ""),
    ("TestSolve::test_unsolvable_m_exits_3", ("solve", "--a", "1.0", "--m", "2"), 3, "m=2"),
    ("TestSolve::test_invalid_a_exits_2", ("solve", "--a", "-1.0", "--m", "0"), 2, "a must be > 0"),
    # c = 4/a overflows; the message used to blame the b derived from it
    ("TestSolve::test_a_too_small_is_named", ("solve", "--a", "1e-320"), 2, "error: a is too small"),
    # solve --a 1e12 prints "b": -1.2e-05, which argparse alone takes for an option
    ("TestEval::test_spaced_negative_exponent_exits_0",
     ("eval", "--state", "ground", "--a", "1e12", "--c", "4e-12", "--b", "-1.2e-05", "--samples", "5"), 0, ""),
    ("TestEval::test_constraint_gate_exits_3",
     ("eval", "--state", "ground", "--a", "1", "--c", "4", "--b", "0", "--m", "0"), 3, "constraint"),
    # 4c (m^2 + 2 sqrt(ac)) overflows, but the branch b, 8.7e154, does not
    ("TestEval::test_overflowing_constraint_terms_exit_3[eval-1e-300-1e306-0]",
     ("eval", "--state", "ground", "--a", "1e-300", "--c", "1e306", "--b", "0"), 3, "constraint needs b"),
    ("TestEval::test_overflowing_constraint_terms_exit_3[normalize-1e-300-1e306-0]",
     ("normalize", "--state", "ground", "--a", "1e-300", "--c", "1e306", "--b", "0"), 3, "constraint needs b"),
    # (b + 2 sqrt(c))^2 overflows, but b itself does not
    ("TestEval::test_overflowing_constraint_terms_exit_3[normalize-1-4-1e300]",
     ("normalize", "--state", "ground", "--a", "1", "--c", "4", "--b", "1e300"), 3, "constraint needs b"),
    # sqrt(ac) overflows, and with it the b of either branch
    ("TestEval::test_overflowing_branch_b_exits_3",
     ("eval", "--state", "ground", "--a", "1e308", "--c", "1e308", "--b", "0"), 3, "constraint terms overflow"),
    # the surface needs b = -2e-13 (ground) or -6e-13 (excited); an absolute floor let b = 0 by
    ("TestEval::test_off_surface_small_c_exits_3[ground-1]",
     ("eval", "--state", "ground", "--a", "1", "--c", "1e-26", "--b", "0", "--samples", "3"), 3,
     "constraint needs b"),
    ("TestEval::test_off_surface_small_c_exits_3[excited-4e26]",
     ("eval", "--state", "excited", "--a", "4e26", "--c", "1e-26", "--b", "0", "--samples", "3"), 3,
     "requires b"),
    ("TestEval::test_partial_explicit_params_exit_2",
     ("eval", "--state", "ground", "--a", "1", "--c", "4", "--m", "0"), 2, "--c and --b must be given together"),
    ("TestEval::test_bad_range_exits_2",
     ("eval", "--state", "ground", "--a", "1", "--m", "0", "--r-min", "2.0", "--r-max", "1.0"), 2,
     "need 0 < r_min < r_max"),
    ("TestEval::test_non_finite_range_exits_2[--r-max-inf]",
     ("eval", "--a", "1", "--r-max", "inf", "--samples", "4"), 2, "must be finite"),
    ("TestEval::test_non_finite_range_exits_2[--r-min-nan]",
     ("eval", "--a", "1", "--r-min", "nan", "--samples", "4"), 2, "must be finite"),
    # options are spelled in full; argparse itself exits 2
    ("TestEval::test_abbreviated_option_exits_2[3]",
     ("eval", "--a", "1", "--r-ma", "3", "--samples", "3"), 2, "unrecognized arguments: --r-ma 3"),
    ("TestEval::test_abbreviated_option_exits_2[-1e1]",
     ("eval", "--a", "1", "--r-ma", "-1e1", "--samples", "3"), 2, "unrecognized arguments: --r-ma -1e1"),
    ("TestNonFiniteInput::test_names_the_parameter_and_exits_2[solve-a]",
     ("solve", "--a", "inf"), 2, "error: a must be finite"),
    ("TestNonFiniteInput::test_names_the_parameter_and_exits_2[verify-a]",
     ("verify", "--a", "nan", "--grid-n", "64"), 2, "error: a must be finite"),
    ("TestNonFiniteInput::test_names_the_parameter_and_exits_2[eval-a]",
     ("eval", "--a", "inf", "--c", "4", "--b", "-12"), 2, "error: a must be finite"),
    ("TestNonFiniteInput::test_names_the_parameter_and_exits_2[normalize-a]",
     ("normalize", "--state", "excited", "--a=-inf", "--c", "4", "--b", "-12"), 2, "error: a must be finite"),
    ("TestNonFiniteInput::test_names_the_parameter_and_exits_2[eval-c]",
     ("eval", "--a", "1", "--c", "inf", "--b", "-12"), 2, "error: c must be finite"),
    ("TestNonFiniteInput::test_names_the_parameter_and_exits_2[normalize-b]",
     ("normalize", "--a", "1", "--c", "4", "--b", "nan"), 2, "error: b must be finite"),
    # every shape of ladder passes: n // 4 of 64 and 128 points, odd n just
    # over the minimum, and the finest grid of the benchmark's fine workload
    ("TestVerifyCommand::test_passes_exits_0[1-0-256]", ("verify", "--a", "1", "--m", "0", "--grid-n", "256"), 0, ""),
    ("TestVerifyCommand::test_passes_exits_0[10-1-512]", ("verify", "--a", "10", "--m", "1", "--grid-n", "512"), 0, ""),
    ("TestVerifyCommand::test_passes_exits_0[1-0-65]", ("verify", "--a", "1", "--m", "0", "--grid-n", "65"), 0, ""),
    ("TestVerifyCommand::test_passes_exits_0[10-1-71]", ("verify", "--a", "10", "--m", "1", "--grid-n", "71"), 0, ""),
    ("TestVerifyCommand::test_passes_exits_0[1-0-64000]",
     ("verify", "--a", "1", "--m", "0", "--grid-n", "64000"), 0, ""),
    ("TestVerifyCommand::test_passes_exits_0[10-1-64000]",
     ("verify", "--a", "10", "--m", "1", "--grid-n", "64000"), 0, ""),
    ("TestVerifyCommand::test_invalid_a_exits_2", ("verify", "--a", "-1", "--m", "0"), 2, "a must be > 0"),
    # n // 4 must be a legal grid (16 points); smaller n used to collapse all three grids
    ("TestVerifyCommand::test_grid_below_minimum_exits_2[16]",
     ("verify", "--a", "1", "--grid-n", "16"), 2, "needs n >= 64"),
    ("TestVerifyCommand::test_grid_below_minimum_exits_2[63]",
     ("verify", "--a", "1", "--grid-n", "63"), 2, "needs n >= 64"),
    # at a = 1e300 the discretized operator overflows double precision
    ("TestVerifyCommand::test_overflowing_operator_exits_with_message",
     ("verify", "--a", "1e300", "--grid-n", "64"), 4, "overflows double precision"),
    # at a = 1e308, a r^2 overflows to inf where b r^-4 overflows to -inf;
    # their sum is NaN, which used to warn "invalid value" before exit 4
    ("TestVerifyCommand::test_opposite_infinities_in_the_operator_exit_4",
     ("verify", "--a", "1e308", "--m", "0", "--grid-n", "64"), 4, "overflows double precision"),
    # at m = 300 the ground state peaks at r = 0.55, past the grid
    # [0.0033, 0.3], where every Simpson sample of |R|^2 underflows to 0
    ("TestVerifyCommand::test_zero_norm_integral_exits_4", ("normalize", *GROUND_M300), 4,
     "norm integral of the ground state on [0.00333333, 0.3] is 0.0"),
    ("TestVerifyCommand::test_zero_norm_integral_exits_4", ("eval", "--normalize", *GROUND_M300, "--samples", "3"), 4,
     "norm integral of the ground state on [0.00333333, 0.3] is 0.0"),
    # ground_constraint_b(1e-46, 1e14, 0, MINUS): b + 2 sqrt(c) = -0.28 against 2 sqrt(c) = 2e7
    ("TestNormalize::test_cancelling_minus_branch_b_exits_0",
     ("normalize", "--state", "ground", "--a", "1e-46", "--c", "1e14", "--b", "-20000000.28284271"), 0, ""),
    # (1, -9, 9/4) is on the excited surface for |m| = 1: only the m check refuses it
    ("TestNormalize::test_negative_m_exits_2[ground-normalize]", ("normalize", "--state", "ground", *NEGATIVE_M), 2,
     "angular momentum m must be a non-negative integer"),
    ("TestNormalize::test_negative_m_exits_2[ground-eval]", ("eval", "--state", "ground", *NEGATIVE_M), 2,
     "angular momentum m must be a non-negative integer"),
    ("TestNormalize::test_negative_m_exits_2[excited-normalize]", ("normalize", "--state", "excited", *NEGATIVE_M), 2,
     "angular momentum m must be a non-negative integer"),
    ("TestNormalize::test_negative_m_exits_2[excited-eval]", ("eval", "--state", "excited", *NEGATIVE_M), 2,
     "angular momentum m must be a non-negative integer"),
    # the grid [4.9e-62, 1.3e-60] misses the state, so every sample underflows to 0
    ("TestNormalize::test_zero_norm_integral_exits_4", ("normalize", *GROUND_M2, "--b", "1.7701636182344234e-120"), 4,
     "norm integral of the ground state on [4.89679e-62, 1.32811e-60] is 0.0"),
    # on the MINUS branch R is finite on the grid but R^2 overflows; the
    # quadrature used to warn, double 20 times and report non-convergence
    ("TestNormalize::test_overflowing_norm_integral_exits_4", ("normalize", *GROUND_M2, "--b=-2.6333929441323264e-120"),
     4, "norm integral of the ground state on [4.89679e-62, 1.32811e-60] is inf"),
    # the b of ground_constraint_b(1, 1, m, PLUS or MINUS): the state's r^kappa
    # outgrows r_max = 9.49, and the interval used to cut 2.7e-9 (m = 40, PLUS)
    # to 87% (m = 100, PLUS) off the norm integral with exit 0
    ("TestNormalize::test_interval_cutting_the_state_exits_4[normalize-40-PLUS]",
     ("normalize", *GROUND_A1_C1, "--m", "40", "--b", "78.049984384758"), 4, "cuts the ground state"),
    ("TestNormalize::test_interval_cutting_the_state_exits_4[eval-40-PLUS]",
     ("eval", "--normalize", *GROUND_A1_C1, "--m", "40", "--b", "78.049984384758", "--samples", "3"), 4,
     "cuts the ground state"),
    ("TestNormalize::test_interval_cutting_the_state_exits_4[normalize-40-MINUS]",
     ("normalize", *GROUND_A1_C1, "--m", "40", "--b", "-82.049984384758"), 4, "cuts the ground state"),
    ("TestNormalize::test_interval_cutting_the_state_exits_4[eval-40-MINUS]",
     ("eval", "--normalize", *GROUND_A1_C1, "--m", "40", "--b", "-82.049984384758", "--samples", "3"), 4,
     "cuts the ground state"),
    ("TestNormalize::test_interval_cutting_the_state_exits_4[normalize-100-PLUS]",
     ("normalize", *GROUND_A1_C1, "--m", "100", "--b", "198.0199990001"), 4, "cuts the ground state"),
    ("TestNormalize::test_interval_cutting_the_state_exits_4[eval-100-PLUS]",
     ("eval", "--normalize", *GROUND_A1_C1, "--m", "100", "--b", "198.0199990001", "--samples", "3"), 4,
     "cuts the ground state"),
    ("TestNormalize::test_interval_cutting_the_state_exits_4[normalize-100-MINUS]",
     ("normalize", *GROUND_A1_C1, "--m", "100", "--b", "-202.0199990001"), 4, "cuts the ground state"),
    ("TestNormalize::test_interval_cutting_the_state_exits_4[eval-100-MINUS]",
     ("eval", "--normalize", *GROUND_A1_C1, "--m", "100", "--b", "-202.0199990001", "--samples", "3"), 4,
     "cuts the ground state"),
    # a curve on the default interval gets the same check: at m = 100 it
    # used to rise to its last sample, 4.6e78 at r_max = 9.49, with exit 0
    ("TestEval::test_curve_on_a_cutting_interval_exits_4[40-PLUS]",
     ("eval", *GROUND_A1_C1, "--m", "40", "--b", "78.049984384758", "--samples", "3"), 4, "cuts the ground state"),
    ("TestEval::test_curve_on_a_cutting_interval_exits_4[40-MINUS]",
     ("eval", *GROUND_A1_C1, "--m", "40", "--b", "-82.049984384758", "--samples", "3"), 4, "cuts the ground state"),
    ("TestEval::test_curve_on_a_cutting_interval_exits_4[100-PLUS]",
     ("eval", *GROUND_A1_C1, "--m", "100", "--b", "198.0199990001", "--samples", "3"), 4, "cuts the ground state"),
    ("TestEval::test_curve_on_a_cutting_interval_exits_4[100-MINUS]",
     ("eval", *GROUND_A1_C1, "--m", "100", "--b", "-202.0199990001", "--samples", "3"), 4, "cuts the ground state"),
    # an explicit interval is the user's choice, and is not checked
    ("TestEval::test_explicit_interval_is_not_checked",
     ("eval", *GROUND_A1_C1, "--m", "100", "--b", "198.0199990001", "--r-max", "16", "--samples", "3"), 0, ""),
    # petabytes, past any 64-bit address space: the allocation fails at
    # once, and used to end in a numpy MemoryError traceback
    ("TestMain::test_size_too_large_to_allocate_exits_2[argv0]",
     ("eval", "--a", "1", "--samples", "1000000000000000"), 2, "Unable to allocate"),
    ("TestMain::test_size_too_large_to_allocate_exits_2[argv1]",
     ("verify", "--a", "1", "--m", "0", "--grid-n", "10000000000000000"), 2, "Unable to allocate"),
    # numpy's float arange rounds a length near 2^63 to an empty array
    # instead of raising, and linspace then ended in an IndexError traceback
    ("TestMain::test_size_too_large_to_allocate_exits_2[argv2]",
     ("eval", "--a", "1", "--samples", "9223372036854775807"), 2, "too many samples to allocate"),
    # m^2 overflows a float; it used to end in an OverflowError traceback
    ("TestMain::test_m_too_large_for_a_float_exits_2[solve]", ("solve", "--a", "1", "--m", BIG_M), 2, "m^2"),
    ("TestMain::test_m_too_large_for_a_float_exits_2[verify]", ("verify", "--a", "1", "--m", BIG_M), 2, "m^2"),
    ("TestMain::test_m_too_large_for_a_float_exits_2[eval]", ("eval", "--a", "1", "--m", BIG_M), 2, "m^2"),
    ("TestMain::test_m_too_large_for_a_float_exits_2[normalize]", ("normalize", "--a", "1", "--m", BIG_M), 2, "m^2"),
    # the write's OSError used to end in a traceback and exit 1
    ("TestMain::test_missing_out_directory_exits_2", ("solve", "--a", "1", "--out", "no-such-directory/x.json"), 2,
     "No such file or directory"),
)

# Run in the tree's own interpreter: every command through anharm2d.cli.main,
# its streams captured; a command that raises is recorded, not fatal.
CHILD = r"""
import contextlib, io, json, sys
import anharm2d.cli

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = anharm2d.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"module": anharm2d.cli.__file__, "results": results}))
"""


def commands() -> list:
    """The fixed command set, as argument lists of anharm2d.cli.main."""
    argvs = []
    for a in A_VALUES:
        for m in ("0", "1"):
            common = ["--a", a, "--m", m]
            argvs.append(["solve", *common])
            for state in ("ground", "excited"):
                argvs.append(["eval", *common, "--state", state, "--samples", "500", "--normalize"])
                argvs.append(["eval", *common, "--state", state, "--samples", "500"])
                argvs.append(["normalize", *common, "--state", state])
            argvs += [["verify", *common, "--grid-n", str(n)] for n in VERIFY_N]
    for samples in ("1", "3", "5", "15", "16"):
        argvs += [["eval", "--a", "1", "--samples", samples, *norm] for norm in ((), ("--normalize",))]
    for r_min, r_max in (("0.5", "3"), ("3", "0.5")):
        argvs += [["eval", "--a", "10", "--m", "1", "--state", "excited", "--samples", "50",
                   "--r-min", r_min, "--r-max", r_max, *norm] for norm in ((), ("--normalize",))]
    for explicit in EXPLICIT:
        argvs += [["eval", *explicit, "--samples", "50"], ["eval", *explicit, "--samples", "50", "--normalize"],
                  ["normalize", *explicit]]
    return argvs + [list(argv) for _, argv, *_ in OUTCOMES]


def unpack(rev: str, dest: Path) -> None:
    """Write the files of revision rev of this repository into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def outputs(tree: Path, argvs: list) -> list:
    """[exit code, stdout, stderr] of each command, run on tree's src/."""
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs), env=env,
                          cwd=tree, capture_output=True, text=True, check=True)
    doc = json.loads(done.stdout)
    if Path(doc["module"]).resolve().parent != (src / "anharm2d").resolve():
        raise SystemExit(f"error: anharm2d was imported from {doc['module']}, not {src}")
    # paths in warnings and tracebacks name the tree; compare what follows
    return [[code, out, err.replace(str(tree), "<tree>")] for code, out, err in doc["results"]]


# A float of JSON output (printed by repr, so every bit shows) may move by
# FLOAT_ULPS units in the last place of max(|x|, |y|, scale), scale 1 for the
# overlap, a cosine whose value is rounding noise, and 0 for every other key.
# A float of eval's CSV, printed to 9 significant digits, may move by one unit
# of its ninth digit: a move of one ulp can carry it across a rounding tie.
FLOAT_ULPS = 16
SCALE = {"overlap_01": 1.0}
CSV_DIGITS = 9


def parsed(stdout: str) -> dict:
    """stdout as data: {"json": the document}, {"csv": the rows of eval's
    CSV after its header, each a list of floats}, or {"text": stdout}."""
    try:
        return {"json": json.loads(stdout)}
    except ValueError:
        pass
    header, _, rows = stdout.partition("\n")
    if header == "r,R":
        return {"csv": [[float(x) for x in row.split(",")] for row in rows.splitlines()]}
    return {"text": stdout}


def same(recorded: dict, current: dict) -> bool:
    """Whether the parsed stdout current matches recorded: a float within the
    tolerance of FLOAT_ULPS or CSV_DIGITS, everything else exactly."""
    if recorded.keys() != current.keys():
        return False
    if "json" in recorded:
        return same_json(recorded["json"], current["json"])
    if "csv" in recorded:
        a, b = recorded["csv"], current["csv"]
        return len(a) == len(b) and all(
            len(p) == len(q) and all(close(x, y, csv_unit(x, y)) for x, y in zip(p, q)) for p, q in zip(a, b))
    return recorded == current


def same_json(recorded, current, key=None) -> bool:
    if isinstance(recorded, dict) and isinstance(current, dict):
        return recorded.keys() == current.keys() and all(same_json(recorded[k], current[k], k) for k in recorded)
    if isinstance(recorded, list) and isinstance(current, list):
        return len(recorded) == len(current) and all(same_json(a, b, key) for a, b in zip(recorded, current))
    if type(recorded) is float and type(current) is float:
        scale = max(abs(recorded), abs(current), SCALE.get(key, 0.0))
        return close(recorded, current, FLOAT_ULPS * math.ulp(scale) if math.isfinite(scale) else 0.0)
    return type(recorded) is type(current) and recorded == current


def close(x: float, y: float, unit: float) -> bool:
    """x and y equal or within unit of each other."""
    return x == y or abs(x - y) <= unit


def csv_unit(x: float, y: float) -> float:
    """One unit of the last of CSV_DIGITS significant digits of the larger of |x| and |y|."""
    big = max(abs(x), abs(y))
    return 10.0 ** (math.floor(math.log10(big)) - CSV_DIGITS + 1) if 0.0 < big < math.inf else 0.0


def record(path: Path, argvs: list) -> None:
    """Write each command's argv, exit code, stderr and parsed stdout, run on
    this checkout, to path: one JSON object a line."""
    lines = [json.dumps({"argv": argv, "exit": code, "stderr": err, "stdout": parsed(out)}, separators=(",", ":"))
             for argv, (code, out, err) in zip(argvs, outputs(ROOT, argvs))]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def check(path: Path, argvs: list) -> int:
    """How many commands' outputs on this checkout differ from the record at
    path, each printed; the record must hold the same commands."""
    entries = json.loads(path.read_text())
    if [entry["argv"] for entry in entries] != argvs:
        raise SystemExit(f"error: {path} records another command set; write it again with --record")
    differing = 0
    for entry, (code, out, err) in zip(entries, outputs(ROOT, argvs)):
        what = [name for name, ok in (("exit code", entry["exit"] == code), ("stderr", entry["stderr"] == err),
                                      ("stdout", same(entry["stdout"], parsed(out)))) if not ok]
        if what:
            differing += 1
            print(f"differs in {', '.join(what)} (exit {entry['exit']} -> {code}): anharm2d {' '.join(entry['argv'])}")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("rev", nargs="?", help="the revision to compare this checkout with")
    mode.add_argument("--record", type=Path, metavar="FILE", help="write this checkout's outputs to FILE")
    mode.add_argument("--check", type=Path, metavar="FILE", help="compare this checkout with the record FILE")
    args = parser.parse_args(argv)

    argvs = commands()
    if args.record:
        record(args.record, argvs)
        print(f"recorded {len(argvs)} commands in {args.record}")
        return 0
    if args.check:
        differing = check(args.check, argvs)
        print(f"{differing} of {len(argvs)} commands differ from the record {args.check}")
        return 1 if differing else 0
    with tempfile.TemporaryDirectory() as tmp:
        unpack(args.rev, Path(tmp))
        theirs = outputs(Path(tmp), argvs)
    mine = outputs(ROOT, argvs)
    differing = 0
    for argv, a, b in zip(argvs, theirs, mine):
        what = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        if what:
            differing += 1
            print(f"differs in {', '.join(what)} (exit {a[0]} -> {b[0]}): anharm2d {' '.join(argv)}")
    print(f"{differing} of {len(argvs)} commands differ between {args.rev} and this checkout")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
