#!/usr/bin/env python3
"""Emit the unnormalized ground and first-excited radial curves as CSV.

Reproduces the standard a=1, m=0 configuration (c=4, b=-12) on a plot-ready
range; feed the output to any plotter.

Usage: python scripts/emit_wavefunction_curves.py [--a 1.0] [--m 0] [--samples 1000]
"""

import argparse

from anharm2d.cli import main as cli_main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=1.0)
    parser.add_argument("--m", type=int, default=0)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--prefix", default="radial", help="output file prefix")
    args = parser.parse_args(argv)

    for state in ("ground", "excited"):
        out = f"{args.prefix}_{state}.csv"
        code = cli_main([
            "eval", "--state", state, "--a", str(args.a), "--m", str(args.m),
            "--samples", str(args.samples), "--out", out,
        ])
        if code != 0:
            raise SystemExit(code)
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
