#!/usr/bin/env python3
"""Solution density versus removal cost for one system.

For each admissible-set size s, draws random families whose sets all
have exactly s elements, counts solutions, and computes the exact
minimal freeing removal. Printing eps = T/n^(p-ell) against
delta = budget/n over many trials shows how quickly low solution
density is rewarded with cheap freeing removals.

Usage:
    python scripts/removal_thresholds.py systems/triangle.sys --trials 40
"""

from __future__ import annotations

import argparse
import random
import sys

from linrem.linsys import SetFamily, parse_system
from linrem.solutions import epsdelta_scan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", nargs="?", default="systems/triangle.sys")
    parser.add_argument("--trials", type=int, default=40, help="families per set size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--guard", type=int, default=24, help="removal search budget")
    args = parser.parse_args(argv)

    with open(args.input, "r", encoding="utf-8") as fh:
        system, _ = parse_system(fh.read())
    q = system.field.q
    p = system.p

    print(f"system {args.input}: q={q} p={p} ell={system.ell}")
    print(f"{'size':>4} {'mean_eps':>9} {'mean_delta':>10} {'max_delta':>9} {'free%':>6}")
    for size in range(1, min(q, args.guard // p) + 1):

        def generate(trial: int) -> SetFamily:
            rng = random.Random(f"{args.seed}:{size}:{trial}")
            return SetFamily.make(
                system.field,
                [sorted(rng.sample(range(q), size)) for _ in range(p)],
            )

        records = epsdelta_scan(system, generate, args.trials, removal_guard=args.guard)
        busy = [(eps, delta) for _, eps, delta in records if eps != 0.0]
        free = args.trials - len(busy)
        mean_eps = sum(eps for eps, _ in busy) / len(busy) if busy else 0.0
        mean_delta = sum(delta for _, delta in busy) / len(busy) if busy else 0.0
        delta_max = max((delta for _, delta in busy), default=0.0)
        print(
            f"{size:>4} {mean_eps:>9.4f} {mean_delta:>10.4f} {delta_max:>9.4f} "
            f"{100 * free / args.trials:>5.0f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
