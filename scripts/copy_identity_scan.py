#!/usr/bin/env python3
"""Random-instance scan of the copy-count identity.

Draws full-rank systems over small prime fields with random admissible
sets, builds the colored host for each, and confirms that the number of
colored template copies equals (solution count) * n^(r-1) while the edge
store stays simple. It also checks the verifier against itself:
check_representation's copy count and its per-solution and
copy-structure entries must equal those check_copies gives over the
listed copies of enumerate_copies, on each host and on one copy of it
with the whole translation orbit of one edge dropped, relabeled or
recolored. Such a copy stays translation invariant, so it is the faulty
host most likely to reach the verifier's credited route. A nonzero
mismatch, collision or disagreement count means a bug; the exit code
reflects it so the scan can run in CI.

Usage:
    python scripts/copy_identity_scan.py --seed 7 --count 100
"""

from __future__ import annotations

import argparse
import copy
import itertools
import random
import sys
import time
from collections import Counter

from linrem.errors import InputError
from linrem.field import PrimeField
from linrem.hrep import build_coefficients, build_host
from linrem.linsys import LinearSystem, SetFamily, normalize
from linrem.solutions import count_system
from linrem.verify import check_copies, check_representation, check_simple, enumerate_copies


def draw_instance(rng: random.Random, copy_cap: int):
    q = rng.choice((5, 7, 11))
    p = rng.randint(3, 5)
    ell = rng.randint(1, min(2, p - 2))
    fld = PrimeField(q)
    rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
    rhs = [rng.randrange(q) for _ in range(ell)]
    try:
        system = LinearSystem.make(fld, rows, rhs)
        ns = normalize(system)
    except InputError:
        return None
    fam = []
    for _ in range(p):
        style = rng.random()
        if style < 0.08:
            fam.append([])
        elif style < 0.25:
            fam.append(list(range(q)))
        else:
            fam.append(sorted(rng.sample(range(q), rng.randint(1, q))))
    sets = SetFamily.make(fld, fam)
    shell = q ** (ns.uniformity - 1)
    solutions = count_system(system, sets)
    if solutions * shell > copy_cap or sets.total_size() * shell > 5 * copy_cap:
        return None
    return ns, sets, solutions, shell


def orbit_faulted(host, rng: random.Random):
    """A copy of host with one edge's translation orbit dropped, relabeled or
    recolored; None for a host without edges.

    Solution s's copy at x-tuple x has x part t at x_t and U_j at
    s_j + mix_j . x, so moving an edge to x adds x_t to its part-t vertex
    and mix_j . x to its U_j vertex.
    """
    if not host.by_key:
        return None
    n = host.n
    bad = copy.copy(host)
    bad.by_key = dict(host.by_key)
    key = rng.choice(list(host.by_key))
    color, label = host.by_key[key]
    fault = rng.choice(("drop", "relabel", "recolor"))
    for xs in itertools.product(range(n), repeat=host.r - 1):
        steps = [*xs, *(sum(c * x for c, x in zip(a, xs)) for a in host.coeffs.mix)]
        moved = tuple(v // n * n + (v % n + steps[v // n]) % n for v in key)
        if fault == "drop":
            del bad.by_key[moved]
        elif fault == "relabel":
            bad.by_key[moved] = (color, (label + 1) % n)
        else:
            bad.by_key[moved] = ((color + 1) % (host.free + host.ell), label)
    return bad


def routes_disagree(host, listed, solutions) -> bool:
    """Do check_representation and check_copies over listed differ on host's copies."""
    report = check_representation(host)
    entries = {e.name: e for e in report.entries}
    walked = (report.copies, entries["per-solution"], entries["copy-structure"])
    if walked == (len(listed), *check_copies(host, listed, solutions)):
        return False
    print(f"DISAGREE q={host.n} rows={host.ns.base.rows} sets={host.sets.sets}: {walked}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=100, help="instances to scan")
    parser.add_argument(
        "--copy-cap", type=int, default=50_000, help="skip instances above this copy count"
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    shapes: Counter = Counter()
    mismatches = 0
    collisions = 0
    disagreements = 0
    faulted = 0
    total_copies = 0
    start = time.perf_counter()
    done = 0
    while done < args.count:
        drawn = draw_instance(rng, args.copy_cap)
        if drawn is None:
            continue
        ns, sets, solutions, shell = drawn
        done += 1
        shapes[(ns.field.q, ns.p, ns.ell)] += 1
        host = build_host(ns, build_coefficients(ns), sets)
        listed = enumerate_copies(host)
        copies = len(listed)
        total_copies += copies
        if copies != solutions * shell:
            mismatches += 1
            print(
                f"MISMATCH q={ns.field.q} rows={ns.base.rows} sets={sets.sets}: "
                f"{copies} copies vs {solutions} * {shell}"
            )
        disagreements += routes_disagree(host, listed, solutions)
        # A separate stream per host keeps the drawn instances those of
        # the plain scan.
        bad = orbit_faulted(host, random.Random(f"{args.seed}:{done}"))
        if bad is not None:
            faulted += 1
            disagreements += routes_disagree(bad, enumerate_copies(bad), solutions)
        if not check_simple(host).passed:
            collisions += 1
    elapsed = time.perf_counter() - start

    print(f"instances : {done} in {elapsed:.1f}s")
    for (q, p, ell), cnt in sorted(shapes.items()):
        print(f"  q={q:2d} p={p} ell={ell}: {cnt}")
    print(f"copies    : {total_copies}")
    print(f"mismatches: {mismatches}")
    print(f"collisions: {collisions}")
    print(f"disagreements: {disagreements} (on {done} hosts and {faulted} orbit-faulted copies)")
    return 1 if mismatches or collisions or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
