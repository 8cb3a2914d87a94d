"""Acceptance battery over fixed-seed random corpora.

Every test covers one numbered criterion, asserts it with tolerance zero,
and records one PASS/FAIL line for the terminal summary. The corpora are
deterministic: rejection sampling from seeded generators, with the empty-
and full-set edge cases forced into the first two instances.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from conftest import (
    ACCEPTANCE_EXPECTED,
    CORPUS_SEED,
    CORPUS_SIZE,
    brute_solutions,
    cofactor_det,
    corpus_draws,
    draw_sets,
    full_sets,
    mk_sets,
    mk_system,
    record_criterion,
)
from linrem.behrend import build_lower_bound_instance
from linrem.errors import InputError, MissingEdge, SearchBudgetExceeded
from linrem.field import PrimeField
from linrem.hrep import (
    Host,
    build_coefficients,
    build_host,
    copies_for_solution,
)
from linrem.linsys import (
    LinearSystem,
    NormalizedSystem,
    SetFamily,
    from_integer_system,
    normalize,
    reduce_degenerate,
)
from linrem.solutions import (
    count_system,
    iter_solutions,
    min_copy_hitting_set,
    translate_edge_deletion,
)
from linrem.verify import (
    check_copies,
    check_edge_equation,
    check_simple,
    enumerate_copies,
)

SEED = CORPUS_SEED
NAIVE_LIMIT = 10**6

ACCEPTANCE_EXPECTED.update(range(1, 12))


@dataclass
class CorpusInstance:
    index: int
    ns: NormalizedSystem
    sets: SetFamily
    host: Host


@pytest.fixture(scope="module")
def corpus() -> list[CorpusInstance]:
    instances = [
        CorpusInstance(index, ns, sets, build_host(ns, build_coefficients(ns), sets))
        for index, (_, ns, sets) in enumerate(corpus_draws(SEED, CORPUS_SIZE))
    ]
    assert any(not s for inst in instances for s in inst.sets.sets)
    assert any(
        all(len(s) == inst.ns.field.q for s in inst.sets.sets) for inst in instances
    )
    return instances


def _finish(number: int, failures: list, detail: str) -> None:
    record_criterion(number, not failures, detail if not failures else f"{detail}; first failure: {failures[0]}")
    assert not failures, failures[:5]


def test_criterion_01_copy_count_identity(corpus):
    start = time.perf_counter()
    failures = []
    for inst in corpus:
        shell = inst.host.n ** (inst.host.r - 1)
        copies = len(enumerate_copies(inst.host))
        solutions = count_system(inst.ns.base, inst.host.sets_n)
        if copies != solutions * shell:
            failures.append((inst.index, copies, solutions, shell))
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    _finish(1, failures, f"copies == T*n^(r-1) on {len(corpus)} instances in {elapsed:.1f}s")


def test_criterion_02_simplicity(corpus):
    failures = []
    for inst in corpus:
        entry = check_simple(inst.host)
        if not entry.passed:
            failures.append((inst.index, entry.witness))
        # Distinct keys, n^(r-1) per admissible label.
        shell = inst.host.n ** (inst.host.r - 1)
        if len(inst.host.by_key) != shell * inst.host.sets_n.total_size():
            failures.append((inst.index, "edge count identity"))
    _finish(2, failures, f"no parallel edges across {len(corpus)} instances")


def test_criterion_03_edge_equation(corpus):
    failures = []
    feasible = 0
    for inst in corpus:
        if inst.ns.ell * inst.host.n**inst.host.r > NAIVE_LIMIT:
            continue
        feasible += 1
        entry = check_edge_equation(inst.host, guard=NAIVE_LIMIT)
        if not entry.passed:
            failures.append((inst.index, entry.witness))
    _finish(3, failures, f"biconditional on {feasible}/{len(corpus)} guard-feasible instances")


def test_criterion_04_per_solution_structure(corpus):
    failures = []
    solutions_seen = 0
    for inst in corpus:
        solutions = count_system(inst.ns.base, inst.host.sets_n)
        entry = check_copies(inst.host, enumerate_copies(inst.host), solutions)[0]
        if not entry.passed:
            failures.append((inst.index, entry.witness))
            continue
        for sol in iter_solutions(inst.ns, inst.sets):
            solutions_seen += 1
            # iter_solutions yields normalized column order, which is the
            # label order; copies_for_solution raises MissingEdge unless
            # every expected edge is stored with its color and label.
            try:
                copies_for_solution(inst.host, sol)
            except MissingEdge as exc:
                failures.append((inst.index, sol, str(exc)))
                break
    _finish(
        4,
        failures,
        f"n^(r-1) disjoint label-matched copies for {solutions_seen} solutions",
    )


def test_criterion_05_coefficient_identities(corpus):
    failures = []
    for inst in corpus:
        ns = inst.ns
        fld = ns.field
        tables = inst.host.coeffs
        for i in range(ns.ell):
            if cofactor_det(fld.q, tables.sep[i]) == 0:
                failures.append((inst.index, "singular", i))
            row = ns.base.rows[i]
            for t in ns.blocks[i]:
                acc = sum(tables.mix[j][t] * row[j] for j in ns.support[i]) % fld.q
                if acc != fld.neg(tables.mix[ns.pivots[i]][t]):
                    failures.append((inst.index, "cancellation", i, t))
    _finish(5, failures, f"cancellation + nonsingular blocks on {len(corpus)} instances")


def test_criterion_06_known_shapes():
    failures = []
    triangle = normalize(mk_system(5, [[1, 1, -1]], [0]))
    if (triangle.uniformity, triangle.vertex_count) != (2, 3):
        failures.append(("triangle", triangle.uniformity, triangle.vertex_count))
    ap4 = normalize(mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0]))
    if (ap4.uniformity, ap4.vertex_count) != (3, 4):
        failures.append(("ap4", ap4.uniformity, ap4.vertex_count))
    for p, q in ((3, 5), (4, 7), (5, 11)):
        dense = normalize(mk_system(q, [[1] * p], [0]))
        if dense.uniformity != p - 1:
            failures.append(("dense", p, dense.uniformity))
    _finish(6, failures, "triangle r=2 k=3, 4-AP r=3 k=4, dense p-term r=p-1")


def test_criterion_07_integer_embedding():
    rng = random.Random(f"{SEED}:integers")
    failures = []
    built = 0
    while built < 50:
        p = rng.randint(2, 4)
        ell = rng.randint(1, p - 1)
        n = rng.randint(3, 20)
        rows = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(ell)]
        rhs = [rng.randint(-3, 3) for _ in range(ell)]
        sets = [sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 6)))) for _ in range(p)]
        try:
            fld, system = from_integer_system(rows, rhs, n)
        except InputError:
            continue
        built += 1
        c = max(max(abs(v) for row in rows for v in row), max(map(abs, rhs)), 1)
        if fld.q > 2 * c * p * p * n:
            failures.append((built, "modulus too large", fld.q, c, p, n))
            continue
        over_z = {
            tup
            for tup in itertools.product(*sets)
            if all(sum(a * x for a, x in zip(row, tup)) == b for row, b in zip(rows, rhs))
        }
        over_q = set(brute_solutions(system, SetFamily.make(fld, sets)))
        if over_z != over_q:
            failures.append((built, "solution sets differ", rows, rhs, sets))
    _finish(7, failures, f"Z == F_q solution sets with q <= 2cp^2n on {built} systems")


def test_criterion_08_reduction_soundness():
    rng = random.Random(f"{SEED}:degenerate")
    failures = []
    built = 0
    while built < 50:
        q = rng.choice((3, 5, 7))
        p = rng.randint(2, 4)
        ell = rng.randint(1, p - 1)
        fld = PrimeField(q)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        rhs = [rng.randrange(q) for _ in range(ell)]
        try:
            system = LinearSystem.make(fld, rows, rhs)
        except InputError:
            continue
        sets = SetFamily.make(fld, draw_sets(rng, q, p))
        red = reduce_degenerate(system, sets)
        if not red.dropped:
            continue
        built += 1
        expected = set(brute_solutions(system, sets))
        if red.kind == "empty":
            lifted = set()
        else:
            tuples = itertools.product(*red.sets.sets)
            if red.kind == "unconstrained":
                residual = list(tuples)
            else:
                residual = [t for t in tuples if red.system.is_solution(t)]
            lifted = {red.lift(t) for t in residual}
            if len(lifted) != len(residual):
                failures.append((built, "lift not injective"))
        if lifted != expected:
            failures.append((built, rows, rhs, sets.sets, red.kind))
    _finish(8, failures, f"counts preserved through the lift on {built} reduced systems")


def test_criterion_09_removal_pipeline():
    rng = random.Random(f"{SEED}:tiny")
    failures = []
    built = 0
    skipped = 0
    while built < 20:
        q = 5
        p = rng.choice((3, 4))
        fld = PrimeField(q)
        rows = [[rng.randrange(q) for _ in range(p)]]
        rhs = [rng.randrange(q)]
        try:
            ns = normalize(LinearSystem.make(fld, rows, rhs))
        except InputError:
            continue
        sets = SetFamily.make(
            fld, [sorted(rng.sample(range(q), rng.randint(1, 3))) for _ in range(p)]
        )
        solutions = list(iter_solutions(ns, sets))
        if not 1 <= len(solutions) <= 12:
            continue
        host = build_host(ns, build_coefficients(ns), sets)
        shell = host.n ** (host.r - 1)
        copies = [c for sol in solutions for c in copies_for_solution(host, sol)]
        try:
            hitting = min_copy_hitting_set(host, copies)
        except SearchBudgetExceeded:
            # Exact search priced out; the instance is not tiny enough.
            skipped += 1
            continue
        built += 1
        surviving = translate_edge_deletion(host, hitting, sets)
        if count_system(ns.base, ns.permute_family(surviving)) != 0:
            failures.append((built, "family not freed", rows, rhs, sets.sets))
            continue
        cap = p * len(hitting) // shell
        for j in range(p):
            removed = len(sets.sets[j]) - len(surviving.sets[j])
            if removed > cap:
                failures.append((built, "per-set bound broken", j, removed, cap))
    _finish(
        9,
        failures,
        f"hitting set frees the family within p|E|/n^(r-1) on {built} instances"
        f" ({skipped} over search budget)",
    )


def test_criterion_10_behrend_instance():
    start = time.perf_counter()
    failures = []
    inst = build_lower_bound_instance(16, 2, (1, 2))
    if len(inst.S) != 8:
        failures.append(("size", inst.S))
    members = set(inst.S)
    for x1, x3 in itertools.product(inst.S, repeat=2):
        if (x1 + x3) % 2 == 0 and (x1 + x3) // 2 in members:
            mid = (x1 + x3) // 2
            if not x1 % 4 == mid % 4 == x3 % 4:
                failures.append(("carry", x1, mid, x3))
    if inst.ap3_total * inst.m**2 > len(inst.S) ** 3:
        failures.append(("ceiling", inst.ap3_total))
    if inst.bound != 128:
        failures.append(("bound", inst.bound))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _finish(
        10,
        failures,
        f"|S|=8, all {inst.ap3_total} progressions in-fiber, total <= 128, {elapsed * 1000:.0f}ms",
    )


def test_criterion_11_oracle_independence(corpus):
    failures = []
    eligible = 0
    for inst in corpus:
        if inst.host.n**inst.host.k > NAIVE_LIMIT:
            continue
        eligible += 1
        fast = enumerate_copies(inst.host)
        slow = enumerate_copies(inst.host, mode="naive", guard=NAIVE_LIMIT)
        if fast != slow:
            failures.append((inst.index, len(fast), len(slow)))
    _finish(11, failures, f"per-part == naive enumeration on {eligible}/{len(corpus)} instances")
