#!/usr/bin/env python3
"""Regenerate every table/figure experiment of the paper (E1–E11).

This is the repository's one-shot reproduction driver: it runs the full
experiment battery (see DESIGN.md's per-experiment index) and prints
each experiment's table and verdict.  ``--quick`` shrinks horizons and
repetition counts (the same settings the test suite and CI use);
``--full`` is what EXPERIMENTS.md records.

Run:  python examples/reproduce_paper.py [--quick] [--seed N]
"""

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS


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

    selected = EXPERIMENTS
    if args.only is not None:
        if args.only not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {args.only!r}; choose from "
                f"{', '.join(EXPERIMENTS)}"
            )
        selected = {args.only: EXPERIMENTS[args.only]}

    failures = []
    for experiment_id, runner in selected.items():
        started = time.perf_counter()
        result = runner(seed=args.seed, quick=args.quick)
        elapsed = time.perf_counter() - started
        print(result.describe())
        print(f"(regenerated in {elapsed:.1f}s)")
        print()
        if not result.verdict.startswith("REPRODUCED"):
            failures.append(experiment_id)

    if failures:
        print(f"NOT REPRODUCED: {', '.join(failures)}")
        return 1
    print(f"all {len(selected)} experiments reproduced "
          f"({'quick' if args.quick else 'full'} settings, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
