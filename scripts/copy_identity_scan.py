#!/usr/bin/env python3
"""Random-instance scan of the copy-count identity.

Draws full-rank systems over small prime fields with random admissible
sets, builds the colored host for each, and confirms that the number of
colored template copies equals (solution count) * n^(r-1) while the edge
store stays simple and, as the host built with random mix columns does
too, holds the plan's n^(r-1) edges per admissible label. It also checks the verifier against itself:
check_representation's copy count and its per-solution and
copy-structure entries must equal those check_copies gives over the
listed copies of enumerate_copies, and the edge-equation entry, of a
direct check_edge_equation call and of check_representation both, must
equal that of a brute-force scan of every candidate tuple (on hosts of
at most BRUTE_CAP such tuples). Both comparisons run on each host, on
one copy of it with the whole translation orbit of one edge dropped,
relabeled, recolored or moved, and on the host built again with random
mix columns. An orbit-faulted copy stays translation invariant but is
not exact, so check_representation walks it in full. A move puts the
x = 0 key of a free-color edge's orbit outside its U part. The random
mix columns come with closing tables recomputed from them, as
build_coefficients does, so the store holds every predicted edge, but
it is translation invariant only where each row's U-column shifts
happen to cancel over its block x positions. Only then is it exact and
credited from x = 0; any other such store is scanned and walked in
full, and a walk that credited it would count wrong. A nonzero
mismatch, collision or disagreement count means a bug; the exit code
reflects it so the scan can run in CI.

Usage:
    python scripts/copy_identity_scan.py --seed 7 --count 100
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import itertools
import random
import sys
import time
from collections import Counter

from linrem.errors import InputError
from linrem.field import PrimeField
from linrem.hrep import CoefficientTables, build_coefficients, build_host
from linrem.linsys import LinearSystem, SetFamily, normalize
from linrem.solutions import count_system
from linrem.verify import (
    check_copies,
    check_edge_equation,
    check_representation,
    check_simple,
    enumerate_copies,
)

# Hosts above this many candidate tuples skip the brute-force
# edge-equation comparison.
BRUTE_CAP = 20_000


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
    """A copy of host with one edge's translation orbit dropped, relabeled,
    recolored or moved; None for a host without edges.

    Solution s's copy at x-tuple x has x part t at x_t and U_j at
    s_j + mix_j . x, so moving an edge to x adds x_t to its part-t vertex
    and mix_j . x to its U_j vertex. A move takes a free-color edge's
    orbit to the orbit of its x = 0 key with the last vertex put in
    another part, one that holds no key there, so that x = 0 key ends
    outside U_j and the host stays invariant; it falls back to a drop
    when no such part exists.
    """
    if not host.by_key:
        return None
    n = host.n
    width = host.r - 1
    bad = copy.copy(host)
    bad.by_key = dict(host.by_key)
    key = rng.choice(list(host.by_key))
    color, label = host.by_key[key]
    fault = rng.choice(("drop", "relabel", "recolor", "move"))

    def orbit(key):
        for xs in itertools.product(range(n), repeat=width):
            steps = [*xs, *(sum(c * x for c, x in zip(a, xs)) for a in host.coeffs.mix)]
            yield tuple(v // n * n + (v % n + steps[v // n]) % n for v in key)

    if fault == "move":
        zero = tuple(t * n for t in range(width))
        free = [k for k, (c, _) in host.by_key.items() if c < host.free and k[:width] == zero]
        if free:
            key = rng.choice(free)
            color, label = host.by_key[key]
            parts = [p for p in range(host.k) if p != key[-1] // n]
            moved = [key[:-1] + (p * n + rng.randrange(n),) for p in rng.sample(parts, len(parts))]
            target = next((m for m in moved if m not in host.by_key), None)
            if target is not None:
                for old in orbit(key):
                    del bad.by_key[old]
                bad.by_key.update(dict.fromkeys(orbit(target), (color, label)))
                return bad
        fault = "drop"
    for moved in orbit(key):
        if fault == "drop":
            del bad.by_key[moved]
        elif fault == "relabel":
            bad.by_key[moved] = (color, (label + 1) % n)
        else:
            bad.by_key[moved] = ((color + 1) % (host.free + host.ell), label)
    return bad


def random_mix_tables(ns, rng: random.Random) -> CoefficientTables:
    """build_coefficients(ns) with random mix columns and the closing
    tables recomputed from them, as build_coefficients computes them."""
    own = build_coefficients(ns)
    q = ns.field.q
    mix = [[rng.randrange(q) for _ in row] for row in own.mix]
    closing = tuple(
        tuple((mix[m][t] + sum(mix[j][t] * row[j] for j in support)) % q for t in outs)
        for outs, support, m, row in zip(own.outside, ns.support, ns.pivots, ns.base.rows)
    )
    return dataclasses.replace(own, mix=tuple(map(tuple, mix)), closing=closing)


def routes_disagree(host, report, listed, solutions) -> bool:
    """Do report, host's check_representation, and check_copies over listed
    differ on host's copies."""
    entries = {e.name: e for e in report.entries}
    walked = (report.copies, entries["per-solution"], entries["copy-structure"])
    if walked == (len(listed), *check_copies(host, listed, solutions)):
        return False
    print(f"DISAGREE q={host.n} rows={host.ns.base.rows} sets={host.sets.sets}: {walked}")
    return True


def brute_edge_equation(host) -> tuple[bool, str]:
    """check_edge_equation's (passed, witness) from every candidate tuple,
    in its scan order, by plain % arithmetic over host.coeffs.mix."""
    ns, n, width = host.ns, host.n, host.r - 1

    def shift(j, xs):
        return sum(a * x for a, x in zip(host.coeffs.mix[j], xs))

    def fault(head, key, member, label, stored):
        return False, (
            f"{head} vertices {key}: membership says {'edge' if member else 'no edge'} "
            f"with label {label}, store says {stored}"
        )

    for i, (row, rhs) in enumerate(zip(ns.base.rows, ns.base.rhs)):
        cols = (*ns.support[i], ns.pivots[i])
        outs = [t for t in range(width) if t not in ns.blocks[i]]
        inv = pow(row[ns.diag_cols[i]], -1, n)
        for xs in itertools.product(range(n), repeat=len(outs)):
            at = dict(zip(outs, xs))
            shifts = [shift(j, [at.get(t, 0) for t in range(width)]) for j in cols]
            # The support values, then the pivot value, innermost.
            for ys in itertools.product(range(n), repeat=len(cols)):
                acc = rhs - sum(row[j] * ((y - s) % n) for j, y, s in zip(cols, ys, shifts))
                label = acc * inv % n
                key = tuple(t * n + x for t, x in zip(outs, xs))
                key += tuple((width + j) * n + y for j, y in zip(cols, ys))
                member = label in host.sets_n.sets[ns.diag_cols[i]]
                stored = host.by_key.get(key)
                present = stored is not None and stored[0] == host.free + i
                if member != present or (present and stored[1] != label):
                    return fault(f"row {i + 1}", key, member, label, stored)
    for j in range(host.free):
        for xs in itertools.product(range(n), repeat=width):
            s = shift(j, xs)
            for y in range(n):
                label = (y - s) % n
                key = tuple(t * n + x for t, x in enumerate(xs)) + ((width + j) * n + y,)
                member = label in host.sets_n.sets[j]
                stored = host.by_key.get(key)
                present = stored is not None and stored[0] == j
                if member != present or (present and stored[1] != label):
                    return fault(f"color {j + 1}", key, member, label, stored)
    return True, ""


def edge_equation_disagrees(host, report) -> bool | None:
    """Does a direct check_edge_equation call's entry, or the edge-equation
    entry of report, host's check_representation, differ from the
    brute-force scan's; None above BRUTE_CAP candidate tuples, where the
    scan is not run."""
    tuples = (host.free + host.ell) * host.n**host.r
    if tuples > BRUTE_CAP:
        return None
    brute = brute_edge_equation(host)
    direct = check_edge_equation(host, guard=tuples)
    reported = next(e for e in report.entries if e.name == "edge-equation")
    if (direct.passed, direct.witness) == (reported.passed, reported.witness) == brute:
        return False
    print(f"DISAGREE edge-equation q={host.n} rows={host.ns.base.rows} sets={host.sets.sets}: "
          f"{direct} {reported}")
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
    # Edge-equation comparisons: True disagrees, False agrees, None not run.
    brute: Counter = Counter()
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
        report = check_representation(host)
        disagreements += routes_disagree(host, report, listed, solutions)
        brute[edge_equation_disagrees(host, report)] += 1
        # A separate stream per host keeps the drawn instances those of
        # the plain scan.
        bad = orbit_faulted(host, random.Random(f"{args.seed}:{done}"))
        if bad is not None:
            faulted += 1
            report = check_representation(bad)
            disagreements += routes_disagree(bad, report, enumerate_copies(bad), solutions)
            brute[edge_equation_disagrees(bad, report)] += 1
        mixed = build_host(ns, random_mix_tables(ns, random.Random(f"{args.seed}:{done}:mix")), sets)
        report = check_representation(mixed)
        disagreements += routes_disagree(mixed, report, enumerate_copies(mixed), solutions)
        brute[edge_equation_disagrees(mixed, report)] += 1
        # represent prints the plan's figure without building the store.
        figure = shell * sets.total_size()
        if not check_simple(host).passed or {len(host.by_key), len(mixed.by_key)} != {figure}:
            collisions += 1
    elapsed = time.perf_counter() - start

    print(f"instances : {done} in {elapsed:.1f}s")
    for (q, p, ell), cnt in sorted(shapes.items()):
        print(f"  q={q:2d} p={p} ell={ell}: {cnt}")
    print(f"copies    : {total_copies}")
    print(f"mismatches: {mismatches}")
    print(f"collisions: {collisions}")
    disagreements += brute[True]
    print(f"disagreements: {disagreements} (on {done} hosts, {faulted} orbit-faulted copies and "
          f"{done} random-mix copies; edge-equation against the brute-force scan on "
          f"{brute[True] + brute[False]} of them)")
    return 1 if mismatches or collisions or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
