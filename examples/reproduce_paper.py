#!/usr/bin/env python3
"""Regenerate every table/figure experiment of the paper (E1–E17).

This is the repository's one-shot reproduction driver: it runs the
experiment battery through the same path as ``repro experiments`` and
prints each experiment's table and verdict.  ``--quick`` shrinks
horizons and repetition counts (the same settings the test suite and
CI use); without it every grid runs at full size.

Run:  python examples/reproduce_paper.py [--quick] [--seed N] [--only ID]
"""

import argparse
import sys

from repro.cli import main as repro_main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small horizons / few repetitions (the test-suite settings)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--only",
        metavar="ID",
        default=None,
        help="run a single experiment (e.g. E5)",
    )
    args = parser.parse_args(argv)
    command = ["experiments", "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    if args.only is not None:
        command += ["--ids", args.only]
    return repro_main(command)


if __name__ == "__main__":
    sys.exit(main())
