#!/usr/bin/env python3
"""Density of lifted progression-free sets as the ambient interval grows.

Builds sphere-based progression-free subsets of {1..m} for growing digit
dimensions, lifts each to {1..n} by fixing the residue mod 2m, and prints
the resulting densities next to the exact ordered progression counts and
the |S|^3/m^2 ceiling. The lifted sets stay dense while their progression
counts grow far slower than the trivial cubic bound, which is the whole
point of the construction.

Usage:
    python scripts/behrend_density.py --base 3 --max-dim 4
"""

from __future__ import annotations

import argparse
import sys

from linrem.behrend import behrend_sphere, build_lower_bound_instance
from linrem.errors import ProgressionCeilingExceeded, SearchBudgetExceeded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=int, default=3, help="digit range of the sphere vectors")
    parser.add_argument("--max-dim", type=int, default=3)
    parser.add_argument(
        "--blocks", type=int, default=64, help="ambient length in units of 2m"
    )
    parser.add_argument(
        "--guard", type=int, default=1_000_000, help="largest |S| a lift may hold"
    )
    args = parser.parse_args(argv)

    print(f"{'dim':>3} {'m':>7} {'|X|':>4} {'n':>9} {'|S|':>7} {'|S|/n':>7} "
          f"{'ap3':>9} {'nontriv':>8} {'ceiling':>11}")
    for dim in range(1, args.max_dim + 1):
        m = (2 * args.base - 1) ** dim
        xs = behrend_sphere(m, args.base, dim)
        blocks = args.blocks
        while True:
            try:
                inst = build_lower_bound_instance(2 * m * blocks, m, xs, guard=args.guard)
                break
            except ProgressionCeilingExceeded:
                # Ambient too short for the coarse ceiling; stretch it.
                blocks *= 4
            except SearchBudgetExceeded:
                inst = None
                break
        if inst is None:
            print(f"{dim:>3} {m:>7} {len(xs):>4}  skipped: in-regime |S| exceeds guard {args.guard}")
            continue
        print(
            f"{dim:>3} {m:>7} {len(xs):>4} {inst.n:>9} {inst.size:>7} "
            f"{inst.size / inst.n:>7.4f} {inst.ap3_total:>9} "
            f"{inst.ap3_nontrivial:>8} {inst.bound:>11}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
