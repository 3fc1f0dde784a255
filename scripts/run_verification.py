#!/usr/bin/env python3
"""Run the full numerical cross-check over a sweep of joint configurations.

Usage: python scripts/run_verification.py [--grid-n 4000] [--out report.json]

Exits 0 if every configuration passes, and 5 (the exit code of a failed
anharm2d verify) if any fails.
"""

import argparse
import json
import sys

from anharm2d import verify
from anharm2d.cli import EXIT_OK, EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-n", type=int, default=4000)
    parser.add_argument("--out", default=None, help="write all reports as JSON")
    args = parser.parse_args(argv)

    reports = []
    print(f"{'a':>6} {'m':>2} {'E0_hat':>14} {'E1_hat':>14} {'err0':>9} {'err1':>9} "
          f"{'nodes':>7} {'|overlap|':>10} {'order':>6} {'ok':>3}")
    for a in (0.25, 1.0, 4.0, 10.0):
        for m in (0, 1):
            rep = verify(a, m, args.grid_n)
            reports.append(rep.to_dict())
            print(f"{a:>6} {m:>2} {rep.numeric_energies[0]:>14.8f} "
                  f"{rep.numeric_energies[1]:>14.8f} {rep.abs_errors[0]:>9.1e} "
                  f"{rep.abs_errors[1]:>9.1e} {str(rep.node_counts):>7} "
                  f"{abs(rep.overlap_01):>10.1e} {rep.convergence_order:>6.3f} "
                  f"{'yes' if rep.passed else 'NO':>3}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
        print(f"wrote {args.out}")
    return EXIT_OK if all(rep["passed"] for rep in reports) else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
