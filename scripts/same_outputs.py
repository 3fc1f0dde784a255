#!/usr/bin/env python3
"""Check that this checkout's program gives the same outputs as revision REV.

Usage: python scripts/same_outputs.py REV

REV (a commit, branch or tag) is unpacked with git archive into a temporary
directory. One fresh interpreter per tree imports anharm2d from that tree's
src/ and runs a fixed set of CLI commands in process: solve, eval with and
without --normalize, normalize and verify over a spread of a (0.25 to 10,
and 1e-300 to 1e300), m in {0, 1} and verify grids from 64 to 16000 points,
plus verify at 64000 points for (a, m) = (1, 0) and (10, 1) and at 63. Then eval and
normalize on the paths that sweep misses (few --samples, an explicit
--r-min/--r-max, explicit --c/--b on both kappa branches) and the inputs
that scripts/check_console.sh checks. Each command's exit code and stdout
and stderr text are compared; every difference is listed, and the script
exits 1 if there is any, 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
A_VALUES = ("0.25", "1", "4", "10", "1e-6", "1e6", "1e-200", "1e200", "1e-300", "1e300")
VERIFY_N = (64, 65, 257, 1000, 4000, 16000)
FINE = (("1", 0), ("10", 1))
# explicit --c/--b: (a, m) = (1, 0) on the plus and the minus kappa branch,
# (1, 1) on the plus branch, and the joint states of a = 1e12 and a = 1
EXPLICIT = (
    ("--state", "ground", "--a", "1", "--c", "1", "--b", "0.8284271247461903"),
    ("--state", "ground", "--a", "1", "--c", "1", "--b", "-4.82842712474619"),
    ("--state", "ground", "--a", "1", "--m", "1", "--c", "1", "--b", "1.4641016151377544"),
    ("--state", "ground", "--a", "1e12", "--c", "4e-12", "--b", "-1.2e-05"),
    ("--state", "excited", "--a", "1", "--c", "4", "--b=-12"),
)
# the commands of scripts/check_console.sh that exit 0 without verify, or
# exit 2, 3 or 4
CONSOLE = (
    ("normalize", "--state", "ground", "--a", "1e-46", "--c", "1e14", "--b", "-20000000.28284271"),
    ("eval", "--state", "ground", "--a", "1", "--c", "1e-26", "--b", "0", "--samples", "3"),
    ("normalize", "--state", "ground", "--a", "1e6", "--c", "1e-6", "--m", "300", "--b", "0.59800666662963"),
    ("normalize", "--state", "ground", "--a", "2.6034814692355e+243", "--m", "2",
     "--c", "4.657280431813428e-242", "--b=-2.6333929441323264e-120"),
    ("eval", "--a", "1", "--samples", "1000000000000000"),
    ("normalize", "--state", "excited", "--a", "1", "--c", "2.25", "--b", "-9", "--m", "-1"),
    ("solve", "--a", "1", "--m", "1" + "0" * 160),
    ("verify", "--a", "1", "--m", "0", "--grid-n", "10000000000000000"),
    ("solve", "--a", "1", "--out", "no-such-directory/x.json"),
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
    argvs += [["verify", "--a", a, "--m", str(m), "--grid-n", "64000"] for a, m in FINE]
    argvs.append(["verify", "--a", "1", "--grid-n", "63"])  # one point below verify's minimum
    for samples in ("1", "3", "5", "15", "16"):
        argvs += [["eval", "--a", "1", "--samples", samples, *norm] for norm in ((), ("--normalize",))]
    for r_min, r_max in (("0.5", "3"), ("3", "0.5")):
        argvs += [["eval", "--a", "10", "--m", "1", "--state", "excited", "--samples", "50",
                   "--r-min", r_min, "--r-max", r_max, *norm] for norm in ((), ("--normalize",))]
    for explicit in EXPLICIT:
        argvs += [["eval", *explicit, "--samples", "50"], ["eval", *explicit, "--samples", "50", "--normalize"],
                  ["normalize", *explicit]]
    return argvs + [list(argv) for argv in CONSOLE]


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the revision to compare this checkout with")
    args = parser.parse_args(argv)

    argvs = commands()
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
