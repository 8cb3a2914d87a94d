"""Progression-free sets and the lower-bound family they generate.

A 3-term progression is an ordered triple with x_1 + x_3 = 2*x_2; the
trivial ones have x_1 = x_3. Large progression-free subsets of [m] lift
to subsets of [n] by fixing the least significant base-2m digit, and the
lifted set keeps a progression count far below the trivial bound, which
is what makes the removal threshold collapse slowly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    IndivisibleAmbient,
    ProgressionCeilingExceeded,
    SearchBudgetExceeded,
)

SPHERE_VECTORS = 10**6  # the most digit vectors behrend_sphere enumerates; the default guard


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
    among the maximum-size sets. Computes r(L), the maximum for {1..L},
    for L = 1..m bottom up, since r(L) is r(L-1) or r(L-1) + 1: each
    length searches for a set of size r(L-1) + 1, depth first over two
    bitsets: avail holds the elements above the last one taken that no
    pair of taken elements bans, and mirror has bit 2L - c per taken c,
    so taking the least available a bans every 2a - c at once as
    mirror >> (2L - 2a). The untaken elements span avail.bit_length() - a
    values, and a progression-free subset of a span translates into
    {1..span}, so a branch is cut when fewer than the elements it still
    needs are available or than r(span) (Gasarch, Glenn and Kruskal,
    "Finding large 3-free sets I", 2008). An element is excluded by
    clearing its bit and looping; the include branch goes first and
    elements ascend, so the first set of the target size met is the least.
    """
    if m > guard:
        raise SearchBudgetExceeded(f"m={m} exceeds exhaustive guard {guard}")
    if m < 1:
        return 0, ()
    r = [0] * (m + 1)

    def search(length: int, target: int) -> tuple[int, ...] | None:
        top = 2 * length

        def walk(avail: int, mirror: int, need: int) -> tuple[int, ...] | None:
            if not need:
                return ()
            while avail.bit_count() >= need:
                low = avail & -avail
                a = low.bit_length() - 1
                if r[avail.bit_length() - a] < need:
                    return None
                avail ^= low
                taken = mirror | 1 << top - a
                rest = walk(avail & ~(taken >> top - 2 * a), taken, need - 1)
                if rest is not None:
                    return (a,) + rest
            return None

        return walk((1 << length + 1) - 2, 0, target)

    for length in range(1, m + 1):
        # r(length - 1) + 1 bounds r(length) while its own search runs.
        r[length] = r[length - 1] + 1
        witness = search(length, r[length])
        if witness is None:
            r[length] -= 1
    if witness is None:
        witness = search(m, r[m])
    return r[m], witness


def behrend_sphere(m: int, base: int, dim: int) -> tuple[int, ...]:
    """Progression-free subset of {1..m} from digit vectors on a sphere.

    Digit vectors in {0..base-1}^dim are read in radix 2*base-1, so digit
    sums never carry; vectors of one squared norm are kept, the norm with
    the most vectors, ties resolved toward the larger norm. Any
    progression among the encodings forces a vector midpoint, which a
    sphere cannot contain. The base^dim vectors are priced before any is
    built, and above SPHERE_VECTORS refused with SearchBudgetExceeded.
    """
    if base < 2 or dim < 1:
        raise ValueError("need base >= 2 and dim >= 1")
    radix = 2 * base - 1
    if radix**dim > m:
        raise ValueError(f"encodings need radix^dim = {radix ** dim} <= m = {m}")
    if base**dim > SPHERE_VECTORS:
        raise SearchBudgetExceeded(f"{base ** dim} digit vectors exceed guard {SPHERE_VECTORS}")
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
    """A residue-lifted progression-free set with its exact counts; S is built on request."""

    n: int
    m: int
    X: tuple[int, ...]
    ap3_total: int
    ap3_nontrivial: int

    @property
    def size(self) -> int:
        """|S| = |X| * n/2m, without building S."""
        return len(self.X) * (self.n // (2 * self.m))

    @property
    def S(self) -> tuple[int, ...]:
        """S = {x + 2m*k : x in X, 0 <= k < n/2m}, block by block."""
        return tuple(x + 2 * self.m * k for k in range(self.n // (2 * self.m)) for x in self.X)

    @property
    def bound(self) -> int:
        """Floor of |S|^3 / m^2, the coarse progression-count ceiling."""
        return self.size**3 // (self.m * self.m)


def build_lower_bound_instance(n: int, m: int, X, *, guard: int = 500) -> LowerBoundInstance:
    """Lift X a copy per 2m-block: S = {x + 2m*k : x in X, 0 <= k < n/2m}.

    Requires n, m >= 1, 2m | n and X a progression-free subset of
    {1..m}. Residues a, b, c in X of a progression in S have
    a + c = 2b mod 2m with both sides in [2, 2m], so a + c = 2b and X
    forces a = b = c.

    The counts come from the residue classes, not from S. With c = n/2m
    blocks, x1 + 2m*k1 and x3 + 2m*k3 have their midpoint in S exactly
    when x1 + x3 is even, (x1 + x3)/2 is in X and k1 + k3 is even: the
    midpoint's residue is (x1 + x3)/2 + m*(k1 + k3) mod 2m, and X holds
    nothing above m. So ap3_total is count_ap3(X) total times
    ceil(c/2)^2 + floor(c/2)^2, by periodicity alone, in work that does
    not grow with n. guard caps |S| = |X|*c, and |X| at
    max(500, isqrt(guard)); the |S|^3/m^2 ceiling is checked on the
    counts (raising ProgressionCeilingExceeded); S is never built here.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    xs = tuple(sorted(set(X)))
    if any(not 1 <= x <= m for x in xs):
        raise ValueError(f"X must lie in 1..{m}")
    # X's scan is quadratic, so it is priced at max(guard, 500^2) pair tests.
    residue_total, residue_nontrivial = count_ap3(xs, guard=max(500, math.isqrt(guard)))
    if residue_nontrivial != 0:
        raise ValueError("X contains a 3-term progression")
    if n % (2 * m) != 0:
        raise IndivisibleAmbient(f"2m = {2 * m} does not divide n = {n}")
    blocks = n // (2 * m)
    size = len(xs) * blocks
    if size > guard:
        raise SearchBudgetExceeded(f"{size} elements exceed guard {guard}")
    total = residue_total * (((blocks + 1) // 2) ** 2 + (blocks // 2) ** 2)
    # Coarse ceiling; fails when n is too small relative to m, which the
    # asymptotic regime never is.
    if total * m * m > size**3:
        raise ProgressionCeilingExceeded(
            f"progression count {total} exceeds |S|^3/m^2 = {size ** 3 / (m * m):g}"
        )
    return LowerBoundInstance(n=n, m=m, X=xs, ap3_total=total, ap3_nontrivial=total - size)
