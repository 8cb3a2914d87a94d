"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own counting and search
paths: solution counting is a raw product loop with % arithmetic, removal
minimality is certified by scanning every element subset, determinants
are cofactor expansions, and progression counting is a cubic triple loop. Expected values frozen in the test files
come from these.
"""

from __future__ import annotations

import itertools
import os

import pytest

import linrem
from linrem.field import PrimeField
from linrem.linsys import LinearSystem, SetFamily


def subprocess_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this linrem."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linrem.__file__)))


def mk_system(q: int, rows, rhs) -> LinearSystem:
    return LinearSystem.make(PrimeField(q), rows, rhs)


def mk_sets(q: int, sets) -> SetFamily:
    return SetFamily.make(PrimeField(q), sets)


def full_sets(q: int, p: int) -> SetFamily:
    return SetFamily.full(PrimeField(q), p)


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
