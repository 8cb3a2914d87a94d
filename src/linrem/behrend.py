"""Progression-free sets and the lower-bound family they generate.

A 3-term progression is an ordered triple with x_1 + x_3 = 2*x_2; the
trivial ones have x_1 = x_3. Large progression-free subsets of [m] lift
to subsets of [n] by fixing the least significant base-2m digit, and the
lifted set keeps a progression count far below the trivial bound, which
is what makes the removal threshold collapse slowly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    IndivisibleAmbient,
    LiftSizeMismatch,
    ProgressionCeilingExceeded,
    SearchBudgetExceeded,
)


def count_ap3(values, guard: int = 500) -> tuple[int, int]:
    """Ordered progression counts (total, nontrivial) in a set of integers.

    Walks ordered endpoint pairs and tests the midpoint, so the work is
    quadratic; a cubic scan over triples gives the same numbers and the
    tests keep one as an oracle.
    """
    elems = sorted(set(values))
    if len(elems) > guard:
        raise SearchBudgetExceeded(f"{len(elems)} elements exceed guard {guard}")
    members = set(elems)
    total = 0
    nontrivial = 0
    for x1 in elems:
        for x3 in elems:
            if (x1 + x3) % 2 == 0 and (x1 + x3) // 2 in members:
                total += 1
                if x1 != x3:
                    nontrivial += 1
    return total, nontrivial


def max_ap3_free(m: int, guard: int = 30) -> tuple[int, tuple[int, ...]]:
    """Largest progression-free subset of {1..m}, exact.

    Returns (size, witness) with the lexicographically least witness
    among the maximum-size sets. Depth-first over elements in ascending
    order, include branch first, so the first maximum found is the least.
    """
    if m > guard:
        raise SearchBudgetExceeded(f"m={m} exceeds exhaustive guard {guard}")
    if m < 1:
        return 0, ()
    best_size = 0
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    in_set = [False] * (2 * m + 1)

    def extendable(e: int) -> bool:
        # Elements arrive ascending, so e can only be the right endpoint.
        for a in chosen:
            if (a + e) % 2 == 0 and in_set[(a + e) // 2]:
                return False
        return True

    def walk(nxt: int) -> None:
        nonlocal best_size, best
        if len(chosen) + (m - nxt + 1) <= best_size:
            return
        if nxt > m:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = tuple(chosen)
            return
        if extendable(nxt):
            chosen.append(nxt)
            in_set[nxt] = True
            walk(nxt + 1)
            in_set[nxt] = False
            chosen.pop()
        walk(nxt + 1)

    walk(1)
    return best_size, best


def behrend_sphere(m: int, base: int, dim: int) -> tuple[int, ...]:
    """Progression-free subset of {1..m} from digit vectors on a sphere.

    Digit vectors in {0..base-1}^dim are read in radix 2*base-1, so digit
    sums never carry; vectors of one squared norm are kept, the norm with
    the most vectors, ties resolved toward the larger norm. Any
    progression among the encodings forces a vector midpoint, which a
    sphere cannot contain.
    """
    if base < 2 or dim < 1:
        raise ValueError("need base >= 2 and dim >= 1")
    radix = 2 * base - 1
    if radix**dim > m:
        raise ValueError(f"encodings need radix^dim = {radix ** dim} <= m = {m}")
    shells: dict[int, list[int]] = {}
    for digits in itertools.product(range(base), repeat=dim):
        norm = sum(d * d for d in digits)
        enc = 0
        for d in reversed(digits):
            enc = enc * radix + d
        shells.setdefault(norm, []).append(enc)
    norm = max(shells, key=lambda nm: (len(shells[nm]), nm))
    return tuple(sorted(shells[norm]))


@dataclass(frozen=True)
class LowerBoundInstance:
    """A residue-lifted progression-free set with its exact counts."""

    n: int
    m: int
    X: tuple[int, ...]
    S: tuple[int, ...]
    ap3_total: int
    ap3_nontrivial: int

    @property
    def bound(self) -> int:
        """Floor of |S|^3 / m^2, the coarse progression-count ceiling."""
        return len(self.S) ** 3 // (self.m * self.m)


def build_lower_bound_instance(n: int, m: int, X, *, guard: int = 500) -> LowerBoundInstance:
    """Lift X a copy per 2m-block: S = {x in 1..n with x mod 2m in X}.

    Requires n, m >= 1, 2m | n and X a progression-free subset of
    {1..m}. Residues a, b, c in X of a progression in S have
    a + c = 2b mod 2m with both sides in [2, 2m], so a + c = 2b and X
    forces a = b = c. The size of S
    and the |S|^3/m^2 ceiling are checked on the result, raising
    LiftSizeMismatch and ProgressionCeilingExceeded. guard caps the size
    of S the quadratic progression scan will accept.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    xs = tuple(sorted(set(X)))
    if any(not 1 <= x <= m for x in xs):
        raise ValueError(f"X must lie in 1..{m}")
    if count_ap3(xs)[1] != 0:
        raise ValueError("X contains a 3-term progression")
    if n % (2 * m) != 0:
        raise IndivisibleAmbient(f"2m = {2 * m} does not divide n = {n}")
    members = frozenset(xs)
    s = tuple(x for x in range(1, n + 1) if x % (2 * m) in members)
    if len(s) != n * len(xs) // (2 * m):
        raise LiftSizeMismatch(f"lift has {len(s)} elements, expected {n * len(xs) // (2 * m)}")
    total, nontrivial = count_ap3(s, guard=guard)
    # Coarse ceiling; fails when n is too small relative to m, which the
    # asymptotic regime never is.
    if total * m * m > len(s) ** 3:
        raise ProgressionCeilingExceeded(
            f"progression count {total} exceeds |S|^3/m^2 = {len(s) ** 3 / (m * m):g}"
        )
    return LowerBoundInstance(n=n, m=m, X=xs, S=s, ap3_total=total, ap3_nontrivial=nontrivial)
