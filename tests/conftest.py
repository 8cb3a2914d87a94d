"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own counting and search
paths: solution counting is a raw product loop with % arithmetic, removal
minimality is certified by scanning every element subset, determinants
are cofactor expansions, progression counting is a cubic triple loop,
and the edge-equation reference reads every candidate tuple. Expected
values frozen in the test files come from these.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

import linrem
from linrem.errors import InputError
from linrem.field import PrimeField
from linrem.linsys import LinearSystem, NormalizedSystem, SetFamily, normalize
from linrem.solutions import count_system

CORPUS_SEED = 20260814
CORPUS_SIZE = 200


def subprocess_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this linrem."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linrem.__file__)))


def mk_system(q: int, rows, rhs) -> LinearSystem:
    return LinearSystem.make(PrimeField(q), rows, rhs)


def mk_sets(q: int, sets) -> SetFamily:
    return SetFamily.make(PrimeField(q), sets)


def full_sets(q: int, p: int) -> SetFamily:
    return SetFamily.full(PrimeField(q), p)


def draw_sets(rng: random.Random, q: int, p: int) -> list[list[int]]:
    fam = []
    for _ in range(p):
        style = rng.random()
        if style < 0.08:
            fam.append([])
        elif style < 0.25:
            fam.append(list(range(q)))
        else:
            fam.append(sorted(rng.sample(range(q), rng.randint(1, q))))
    return fam


def _draw_corpus_instance(rng: random.Random, force: str | None):
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
    fam = draw_sets(rng, q, p)
    if force == "full":
        fam = [list(range(q)) for _ in range(p)]
    elif force == "empty":
        fam[0] = []
    sets = SetFamily.make(fld, fam)
    shell = q ** (ns.uniformity - 1)
    # Keep both the edge store and the copy family walkable: the criteria
    # enumerate every copy of every instance, so the corpus bounds the
    # per-instance work rather than the shape distribution.
    if sets.total_size() * shell > 250_000:
        return None
    if count_system(ns.base, ns.permute_family(sets)) * shell > 50_000:
        return None
    return system, ns, sets


def corpus_draws(seed: int, size: int) -> list[tuple[LinearSystem, NormalizedSystem, SetFamily]]:
    """The acceptance corpus as (system, normal form, family) draws.

    Rejection sampling from a generator seeded with seed, with full sets
    forced into the first draw and one empty set into the second. The
    filter prices each draw with the library's own solution count; no
    oracle reads these draws' counts from it.
    """
    rng = random.Random(seed)
    draws: list = []
    while len(draws) < size:
        drawn = _draw_corpus_instance(rng, {0: "full", 1: "empty"}.get(len(draws)))
        if drawn is not None:
            draws.append(drawn)
    return draws


def brute_solutions(system: LinearSystem, sets: SetFamily) -> list[tuple[int, ...]]:
    """Every admissible solution by raw product enumeration."""
    q = system.field.q
    out = []
    for tup in itertools.product(*sets.sets):
        if all(
            sum(c * x for c, x in zip(row, tup)) % q == b
            for row, b in zip(system.rows, system.rhs)
        ):
            out.append(tup)
    return out


def brute_count(system: LinearSystem, sets: SetFamily) -> int:
    return len(brute_solutions(system, sets))


def cofactor_det(q: int, mat) -> int:
    """Determinant mod q by cofactor expansion along the first row."""
    if not mat:
        return 1
    total = 0
    for j, a in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * a * cofactor_det(q, minor)
    return total % q


def removal_oracle(system: LinearSystem, sets: SetFamily, mode: str) -> int:
    """Optimal freeing cost by scanning every subset of deletable elements.

    Each element is one bit, and each brute-force solution is the mask of
    the elements it uses. A removal mask frees the family exactly when it
    meets every solution's mask.
    """
    elements = [(i, v) for i, s in enumerate(sets.sets) for v in s]
    assert len(elements) <= 14, "oracle meant for tiny instances"
    bit = {e: 1 << t for t, e in enumerate(elements)}
    solutions = [sum(map(bit.get, enumerate(sol))) for sol in brute_solutions(system, sets)]
    per_set = [sum(bit[i, v] for v in s) for i, s in enumerate(sets.sets)]
    best = None
    for mask in range(1 << len(elements)):
        if not all(mask & sol for sol in solutions):
            continue
        if mode == "per-set-max":
            cost = max(((mask & s).bit_count() for s in per_set), default=0)
        else:
            cost = mask.bit_count()
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


def ap3_brute(values) -> tuple[int, int]:
    """Ordered integer triples with x1 + x3 = 2*x2; cubic scan."""
    vals = sorted(set(values))
    total = 0
    nontrivial = 0
    for x1 in vals:
        for x2 in vals:
            for x3 in vals:
                if x1 + x3 == 2 * x2:
                    total += 1
                    if x1 != x3:
                        nontrivial += 1
    return total, nontrivial


def brute_edge_equation(host) -> tuple[bool, str]:
    """check_edge_equation's (passed, witness) by reading every candidate tuple.

    Reads only host.ns, host.sets_n and host.by_key, in the check's scan
    order: each row color's off-block x values, support values and pivot
    value, then each free color's x-tuples and U vertex. The translation
    mix_j is re-derived from the normalized system as the encoding
    defines it (row i's block position t, paired with its g-th support
    column j, has mix 1 in column j and -row[j] in the pivot column), and
    each predicted label is solved by plain % arithmetic.
    """
    ns = host.ns
    n = ns.field.q
    width = ns.uniformity - 1
    free = ns.free_count
    mix = [[0] * width for _ in range(free)]
    for row, block, support, pivot in zip(ns.base.rows, ns.blocks, ns.support, ns.pivots):
        for t, j in zip(block, support):
            mix[j][t] = 1
            mix[pivot][t] = -row[j] % n
    for i, (row, rhs) in enumerate(zip(ns.base.rows, ns.base.rhs)):
        d, pivot, support = ns.diag_cols[i], ns.pivots[i], ns.support[i]
        outs = [t for t in range(width) if t not in ns.blocks[i]]
        for xs in itertools.product(range(n), repeat=len(outs)):
            x = [0] * width
            for t, v in zip(outs, xs):
                x[t] = v
            for ys in itertools.product(range(n), repeat=len(support)):
                for ym in range(n):
                    # The x = 0 values of the generating solution's columns.
                    u = {j: (y - sum(a * b for a, b in zip(mix[j], x))) % n
                         for j, y in zip((*support, pivot), (*ys, ym))}
                    label = (rhs - sum(row[j] * u[j] for j in support) - u[pivot]) \
                        * pow(row[d], -1, n) % n
                    member = label in host.sets_n.sets[d]
                    key = (tuple(t * n + v for t, v in zip(outs, xs))
                           + tuple((width + j) * n + y for j, y in zip(support, ys))
                           + ((width + pivot) * n + ym,))
                    stored = host.by_key.get(key)
                    present = stored is not None and stored[0] == free + i
                    if member != present or (present and stored[1] != label):
                        return False, (
                            f"row {i + 1} vertices {key}: membership says "
                            f"{'edge' if member else 'no edge'} with label {label}, "
                            f"store says {stored}"
                        )
    for j in range(free):
        for xs in itertools.product(range(n), repeat=width):
            for v in range(n):
                label = (v - sum(a * b for a, b in zip(mix[j], xs))) % n
                member = label in host.sets_n.sets[j]
                key = tuple(t * n + x for t, x in enumerate(xs)) + ((width + j) * n + v,)
                stored = host.by_key.get(key)
                present = stored is not None and stored[0] == j
                if member != present or (present and stored[1] != label):
                    return False, (
                        f"color {j + 1} vertices {key}: membership says "
                        f"{'edge' if member else 'no edge'} with label {label}, "
                        f"store says {stored}"
                    )
    return True, ""


ACCEPTANCE: dict[int, tuple[bool, str]] = {}

# Criterion numbers the collected tests promised to record; anything
# promised but missing at the end shows up as a FAIL line instead of
# silently disappearing when a test errors out early.
ACCEPTANCE_EXPECTED: set[int] = set()


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    numbers = sorted(set(ACCEPTANCE) | ACCEPTANCE_EXPECTED)
    if not numbers:
        return
    terminalreporter.section("acceptance criteria")
    for number in numbers:
        passed, detail = ACCEPTANCE.get(number, (False, "not recorded in this run"))
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d} {word}  {detail}")


@pytest.fixture(scope="session")
def triangle5():
    """x1 + x2 = x3 over F_5 with S_i = {1, 2}: the worked tiny instance."""
    system = mk_system(5, [[1, 1, -1]], [0])
    sets = mk_sets(5, [[1, 2], [1, 2], [1, 2]])
    return system, sets


@pytest.fixture(scope="session")
def ap4_full():
    """The 4-term progression system over F_5 with full sets."""
    system = mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0])
    sets = full_sets(5, 4)
    return system, sets
