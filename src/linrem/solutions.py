"""Solutions of constrained systems, and exact removal searches over them.

A solution assigns each unknown a value from its admissible set.
Counting is a transfer walk over the columns, from both ends to a
meeting column, whose state is a partial left-hand side in F_q^ell: its
work grows with q^ell, not with the product of the sets. When the
(2q)^ell residue slots are no more than the walk's steps, the same
count is one slot of a product of packed big integers, one per column.
The naive mode enumerates full tuples as an independent oracle. `solve`
enumerates the solutions of any full-rank system from its
block-identity form: the free unknowns range over their sets and fix
the block unknowns. Removal searches are exact branch-and-bound over
which elements to delete.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import EdgeNotInHost, InvariantViolation, SearchBudgetExceeded
from .linsys import LinearSystem, NormalizedSystem, SetFamily, block_identity

__all__ = [
    "SetFamily",
    "iter_solutions",
    "solve",
    "count_system",
    "RemovalResult",
    "plan_removal",
    "min_copy_hitting_set",
    "translate_edge_deletion",
    "epsdelta_scan",
]


def iter_solutions(ns: NormalizedSystem, sets: SetFamily) -> Iterator[tuple[int, ...]]:
    """Yield every solution as a full tuple in normalized column order."""
    yield from solve(ns.base, ns.permute_family(sets))


def _walk_steps(sizes: Sequence[int], states: int) -> int:
    """Transfer steps of a walk over columns with these set sizes, in walk order."""
    prefixes = itertools.accumulate(sizes, lambda a, b: a * b, initial=1)
    return sum(size * min(states, pre) for size, pre in zip(sizes, prefixes))


def _walk(system: LinearSystem, sets: SetFamily, cols: Iterable[int]) -> dict[tuple[int, ...], int]:
    """Each partial left-hand side over cols, with its number of admissible prefixes."""
    q = system.field.q
    reach = {(0,) * system.ell: 1}
    for j in cols:
        # Values with equal column images move a prefix alike; merge them.
        shifts = Counter(tuple(row[j] * x % q for row in system.rows) for x in sets.sets[j])
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in reach.items():
            for shift, mult in shifts.items():
                key = tuple((a + b) % q for a, b in zip(state, shift))
                nxt[key] = nxt.get(key, 0) + ways * mult
        reach = nxt
    return reach


def _paired_walk(system: LinearSystem, sets: SetFamily, m: int) -> int:
    """Solution count from walks over the first m columns and, backward, the rest."""
    q = system.field.q
    head = _walk(system, sets, range(m))
    tail = _walk(system, sets, reversed(range(m, system.p)))
    rhs = system.rhs
    return sum(w * head.get(tuple((b - t) % q for t, b in zip(s, rhs)), 0) for s, w in tail.items())


def _packed_count(system: LinearSystem, sets: SetFamily) -> int:
    """Solution count as one slot of a product of packed column ints.

    A slot is a whole number of bytes, at least one bit wider than the
    product of the set sizes, so no slot carries. Slot idx(v) holds the
    number of prefixes with left-hand side v, where idx lays out v with
    stride 2q per row. A product adds two row values below q, so no row
    spills into the next; the fold then moves each row's slots at or
    above q down by q, and the stride of 2q keeps every slot a shift
    borrows into at or above q, where the mask drops it.
    """
    q = system.field.q
    base = 2 * q
    nbytes = (math.prod(sets.sizes()).bit_length() + 8) // 8
    width = 8 * nbytes
    slots = base**system.ell

    def idx(vec: Iterable[int]) -> int:
        return sum(v * base**i for i, v in enumerate(vec))

    folds = []
    for i in range(system.ell):
        run = nbytes * q * base**i
        low = int.from_bytes((b"\xff" * run + bytes(run)) * base ** (system.ell - 1 - i), "little")
        folds.append((width * q * base**i, low))
    acc = 1
    for j in range(system.p):
        packed = bytearray(nbytes * slots)
        images = Counter(idx(row[j] * x % q for row in system.rows) for x in sets.sets[j])
        for k, mult in images.items():
            packed[nbytes * k : nbytes * (k + 1)] = mult.to_bytes(nbytes, "little")
        acc *= int.from_bytes(packed, "little")
        for shift, low in folds:
            acc = (acc + (acc >> shift)) & low
    return acc >> (width * idx(system.rhs)) & ((1 << width) - 1)


def count_system(
    system: LinearSystem, sets: SetFamily, mode: str = "structured", guard: int = 10**6
) -> int:
    """Admissible solution count for any full-rank system, degenerate rows included.

    structured: a transfer walk. A walk over columns keeps, for each
    partial left-hand side in F_q^ell, the number of admissible prefixes
    reaching it, in sum_j |S_j|·min(q^ell, prod_{k<j} |S_k|) steps. The
    first m columns are walked forward and the rest backward, at the m
    with the fewest steps in all (m = p is the one-way walk); each tail
    sum t pairs with the head sum rhs - t. When (2q)^ell is at most that
    step count, a packed product runs instead (`_packed_count`): one int
    per column, a slot of whole bytes per residue vector, at least one
    bit wider than prod_j |S_j| so no slot carries, each row folded back
    below q after every product. The step count is checked against guard
    before the first step, whichever kernel runs. naive: full product
    enumeration checking the system directly, an independent oracle
    guarded by its tuple count.
    """
    if mode == "naive":
        work = math.prod(max(1, len(s)) for s in sets.sets)
        if work > guard:
            raise SearchBudgetExceeded(f"naive count needs {work} tuples, guard is {guard}")
        return sum(1 for tup in itertools.product(*sets.sets) if system.is_solution(tup))
    if mode != "structured":
        raise ValueError(f"unknown mode {mode!r}")
    q = system.field.q
    sizes = sets.sizes()
    states = q**system.ell
    work, m = min(
        (_walk_steps(sizes[:k], states) + _walk_steps(sizes[k:][::-1], states), k)
        for k in range(system.p + 1)
    )
    if work > guard:
        raise SearchBudgetExceeded(f"transfer count needs {work} steps, guard is {guard}")
    if (2 * q) ** system.ell <= work:
        return _packed_count(system, sets)
    return _paired_walk(system, sets, m)


def solve(system: LinearSystem, sets: SetFamily) -> Iterator[tuple[int, ...]]:
    """Yield every admissible solution of any full-rank system, in original column order.

    Walks the product of the free sets of the block-identity form, each
    block value read off as rhs_i - sum c*x. Pins, folds and two-variable
    rows are rows with few terms; they need no reduction.
    """
    rows, rhs, perm = block_identity(system)
    q = system.field.q
    free = system.p - system.ell
    terms = [[(j, c) for j, c in enumerate(row[:free]) if c] for row in rows]
    block_sets = [frozenset(sets.sets[j]) for j in perm[free:]]
    back = sorted(range(system.p), key=perm.__getitem__)
    for xs in itertools.product(*(sets.sets[j] for j in perm[:free])):
        out = list(xs)
        for i, row_terms in enumerate(terms):
            acc = rhs[i]
            for j, c in row_terms:
                acc -= c * xs[j]
            acc %= q
            if acc not in block_sets[i]:
                break
            out.append(acc)
        else:
            yield tuple(out[k] for k in back)


# ---------------------------------------------------------------------------
# Exact removal searches.


@dataclass(frozen=True)
class RemovalResult:
    """Elements to delete per original set, with both cost readings."""

    removed: tuple[tuple[int, ...], ...]
    mode: str

    @property
    def budget(self) -> int:
        return max((len(r) for r in self.removed), default=0)

    @property
    def total(self) -> int:
        return sum(len(r) for r in self.removed)

    def apply(self, sets: SetFamily) -> SetFamily:
        return sets.with_removed(self.removed)


def _hit_masks(rows: Sequence[tuple]) -> tuple[dict, int]:
    """Per element, the bitmask of the rows containing it; and the all-rows mask."""
    hits: dict = {}
    for idx, row in enumerate(rows):
        for e in row:
            hits[e] = hits.get(e, 0) | 1 << idx
    return hits, (1 << len(rows)) - 1


def _min_hitting_set(rows: Sequence[tuple], node_budget: int, floor: int = 0) -> list:
    """Exact minimum set of elements meeting every row.

    Branch and bound from a greedy upper bound, pruned by a greedy
    packing: take the first unhit row, drop every row sharing an element
    with it, repeat. The rows taken are pairwise disjoint, so each needs
    its own element. The root's packing raises floor, the caller's lower
    bound, and the search stops once its incumbent (greedy first) meets it.
    Each node branches on the elements of the first unhit row, keeping
    one element per distinct gain (equal gains lead to identical
    subtrees). Raises SearchBudgetExceeded past node_budget nodes.
    """
    hits, all_mask = _hit_masks(rows)
    # reach[idx]: every row that some element of row idx also hits.
    reach = [0] * len(rows)
    for idx, row in enumerate(rows):
        for e in row:
            reach[idx] |= hits[e]

    def lower_bound(covered: int) -> int:
        taken = 0
        rem = all_mask & ~covered
        while rem:
            taken += 1
            rem &= ~reach[(rem & -rem).bit_length() - 1]
        return taken

    best: list = []
    covered = 0
    order = sorted(hits)
    while covered != all_mask:
        e = max(order, key=lambda e: bin(hits[e] & ~covered).count("1"))
        best.append(e)
        covered |= hits[e]
    floor = max(floor, lower_bound(0))
    if len(best) <= floor:
        return best

    chosen: list = []
    nodes = 0

    def search(covered: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"hitting-set search passed {node_budget} nodes;"
                f" best cover so far has {len(best)} elements"
            )
        if covered == all_mask:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if max(floor, len(chosen) + lower_bound(covered)) >= len(best):
            return
        rem = all_mask & ~covered
        seen: set[int] = set()
        for e in rows[(rem & -rem).bit_length() - 1]:
            gain = hits[e] & ~covered
            if gain in seen:
                continue
            seen.add(gain)
            chosen.append(e)
            search(covered | gain)
            chosen.pop()

    search(0)
    return best


def _min_max_hitting_set(
    rows: Sequence[tuple[tuple[int, int], ...]], sets: SetFamily, node_budget: int, floor: int
) -> list[tuple[int, int]]:
    """(column, value) elements meeting every row, fewest from any one column.

    Iterative deepening over the per-column cap, from floor, a proven
    lower bound (cap 0 is feasible only with no rows): the first cover
    found at the smallest feasible cap is then made irredundant, dropping
    each element that the others make unnecessary.
    """
    hits, all_mask = _hit_masks(rows)
    nodes = 0
    for bound in range(floor, max(len(s) for s in sets.sets) + 1):
        chosen: list[tuple[int, int]] = []
        counts: dict[int, int] = {}

        def feasible(covered: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(
                    f"removal search passed {node_budget} nodes at cap {bound},"
                    f" deepening from floor {floor}"
                )
            if covered == all_mask:
                return True
            rem = all_mask & ~covered
            for e in rows[(rem & -rem).bit_length() - 1]:
                if counts.get(e[0], 0) < bound:
                    counts[e[0]] = counts.get(e[0], 0) + 1
                    chosen.append(e)
                    if feasible(covered | hits[e]):
                        return True
                    chosen.pop()
                    counts[e[0]] -= 1
            return False

        if feasible(0):
            kept = list(chosen)
            for e in chosen:
                others = 0
                for f in kept:
                    if f != e:
                        others |= hits[f]
                if others == all_mask:
                    kept.remove(e)
            return kept
    raise InvariantViolation("deleting every element did not free the family")


def _removal_floor(system: LinearSystem, sets: SetFamily, mode: str) -> int:
    """A lower bound on the removal cost in mode, from Cauchy-Davenport.

    The rows of the block-identity form fall into components that share
    no nonzero column, and the family is free exactly when some set is
    empty or some component has no solution. Emptying a set costs at
    least min |S_j|. Over prime q, nonempty sets A_j and nonzero c_j give
    |c_1 A_1 + ... + c_p' A_p'| >= min(q, sum |A_j| - p' + 1), so a
    one-row component on p' columns has no solution only once its sets
    shrink to sum |A_j| <= q + p' - 2. That takes at least
    excess = sum |S_j| - q - p' + 2 deletions in all, and ceil(excess / p')
    from some one set. A component of several rows gets no bound, so the
    floor is 0.
    """
    rows, _, perm = block_identity(system)
    components: list[tuple[set[int], int]] = []
    for row in rows:
        cols = {perm[j] for j, c in enumerate(row) if c}
        height = 1
        for comp in [comp for comp in components if comp[0] & cols]:
            components.remove(comp)
            cols |= comp[0]
            height += comp[1]
        components.append((cols, height))
    floor = min(sets.sizes())
    for cols, height in components:
        excess = sum(len(sets.sets[j]) for j in cols) - system.field.q - len(cols) + 2
        if height > 1 or excess <= 0:
            return 0
        floor = min(floor, excess if mode == "total" else -(-excess // len(cols)))
    return floor


def plan_removal(
    system: LinearSystem,
    sets: SetFamily,
    mode: str = "per-set-max",
    guard: int = 24,
    node_budget: int = 2_000_000,
) -> RemovalResult:
    """Exact cheapest removal that leaves the family free, for any full-rank system.

    The search covers every admissible solution from `solve`, each taken as
    its (column, value) elements in original column order, so deletions may
    fall on any column, a pinned or folded-away one included. total
    minimizes the number of deleted elements (a minimum hitting set);
    per-set-max minimizes the largest per-set deletion count. Both answers
    are exact, certified by exhaustive branch and bound, and irredundant:
    putting back any deleted element lets a solution return.

    Both searches start from a Cauchy-Davenport floor (`_removal_floor`).
    Over prime q, a one-row component on p' columns, with nonempty sets
    and nonzero coefficients, keeps a solution while fewer than
    excess = sum |S_j| - q - p' + 2 of its values are deleted. The floor
    is min(min_j |S_j|, excess) in total mode and min(min_j |S_j|,
    ceil(excess / p')) in per-set-max mode, the least over components,
    and 0 once any component has several rows. Per-set-max deepens from
    the floor; total keeps the greedy cover when it meets the floor or
    the root's packing bound. Caps and covers below either bound are
    infeasible, so the answer is the one the search from 0 finds.
    """
    if sets.total_size() > guard:
        raise SearchBudgetExceeded(f"family size {sets.total_size()} exceeds guard {guard}")
    if mode not in ("per-set-max", "total"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = [tuple(enumerate(sol)) for sol in sorted(solve(system, sets))]
    floor = _removal_floor(system, sets, mode)
    if mode == "total":
        chosen = _min_hitting_set(rows, node_budget, floor)
    else:
        chosen = _min_max_hitting_set(rows, sets, node_budget, floor)
    removed: list[list[int]] = [[] for _ in range(sets.p)]
    for col, val in sorted(chosen):
        removed[col].append(val)
    return RemovalResult(tuple(tuple(vals) for vals in removed), mode)


# ---------------------------------------------------------------------------
# Hypergraph-side removal plumbing.


def min_copy_hitting_set(
    host, copies: Sequence, guard: int = 10**4, node_budget: int = 100_000
) -> tuple:
    """Exact minimum edge set of host meeting every copy.

    Copies are sorted vertex tuples, as enumerate_copies and
    copies_for_solution give them; host.copy_edges reads their edges,
    and a tuple that does not meet every part once raises ValueError.
    Returns the chosen (color, vertex key) edges as a sorted tuple. The
    branch-and-bound raises SearchBudgetExceeded past node_budget nodes,
    so hard inputs fail loudly instead of hanging.
    """
    if len(copies) > guard:
        raise SearchBudgetExceeded(f"{len(copies)} copies exceed hitting-set guard {guard}")
    return tuple(sorted(_min_hitting_set(host.copy_edges(copies), node_budget)))


def translate_edge_deletion(host, edges: Iterable, sets: SetFamily) -> SetFamily:
    """Turn an edge deletion into element removals from the original sets.

    A value s leaves set i exactly when the deletion contains at least
    n^(r-1)/p distinct edges of color i labeled s (an edge listed twice
    is deleted once); the comparison is done in exact integers as
    p*count >= n^(r-1).
    """
    p = host.ns.p
    threshold = host.n ** (host.r - 1)
    tally: dict[tuple[int, int], int] = {}
    for ref in dict.fromkeys(edges):
        color, vkey = ref
        stored = host.by_key.get(vkey)
        if stored is None or stored[0] != color:
            raise EdgeNotInHost(f"edge {ref!r} is not in the host")
        tally[(color, stored[1])] = tally.get((color, stored[1]), 0) + 1
    removals: list[set[int]] = [set() for _ in range(p)]
    for (color, label), cnt in sorted(tally.items()):
        if p * cnt >= threshold:
            removals[host.ns.perm[color]].add(label)
    return sets.with_removed(removals)


def epsdelta_scan(
    system: LinearSystem,
    family_generator: Callable[[int], SetFamily],
    trials: int,
    removal_guard: int = 24,
) -> list[tuple[int, float, float]]:
    """Ratio records (n, solutions/n^(p-ell), removal budget/n) per trial.

    Any full-rank system is accepted, degenerate rows included.
    Deterministic when the generator is; a solution-free trial records
    zero for both ratios.
    """
    n = system.field.q
    denom = n ** (system.p - system.ell)
    records = []
    for t in range(trials):
        sets = family_generator(t)
        count = count_system(system, sets)
        if count == 0:
            records.append((n, 0.0, 0.0))
            continue
        removal = plan_removal(system, sets, "per-set-max", guard=removal_guard)
        records.append((n, count / denom, removal.budget / n))
    return records
