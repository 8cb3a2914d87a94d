import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linrem.behrend as behrend
from conftest import ap3_brute
from linrem.behrend import (
    behrend_sphere,
    build_lower_bound_instance,
    count_ap3,
    max_ap3_free,
)
from linrem.errors import IndivisibleAmbient, ProgressionCeilingExceeded, SearchBudgetExceeded


# ---------------------------------------------------------------------------
# Progression counting.


def test_count_ap3_examples():
    # {1,2,3}: five trivial triples would be wrong — each element gives one
    # trivial triple, plus (1,2,3) and (3,2,1).
    assert count_ap3([1, 2, 3]) == (5, 2)
    assert count_ap3([]) == (0, 0)
    assert count_ap3([4]) == (1, 0)
    assert count_ap3([1, 2, 4, 8, 9]) == (5, 0)
    assert count_ap3([3, 3, 3]) == (1, 0)


def test_count_ap3_guard():
    with pytest.raises(SearchBudgetExceeded):
        count_ap3(range(501))


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(min_value=-40, max_value=40), max_size=12))
def test_count_ap3_matches_cubic_scan(values):
    assert count_ap3(values) == ap3_brute(values)


# ---------------------------------------------------------------------------
# Exact maximum progression-free sets.


def test_max_ap3_free_small_values():
    assert max_ap3_free(0) == (0, ())
    assert max_ap3_free(1) == (1, (1,))
    assert max_ap3_free(2) == (2, (1, 2))
    assert max_ap3_free(4) == (3, (1, 2, 4))
    assert max_ap3_free(8) == (4, (1, 2, 4, 5))


def test_max_ap3_free_guard():
    with pytest.raises(SearchBudgetExceeded):
        max_ap3_free(31)


def reference_max_ap3_free(m):
    """The unbounded depth-first search that max_ap3_free replaced."""
    if m < 1:
        return 0, ()
    best_size = 0
    best = ()
    chosen = []
    in_set = [False] * (2 * m + 1)

    def extendable(e):
        for a in chosen:
            if (a + e) % 2 == 0 and in_set[(a + e) // 2]:
                return False
        return True

    def walk(nxt):
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


def test_max_ap3_free_matches_reference_search():
    for m in range(0, 31):
        assert max_ap3_free(m) == reference_max_ap3_free(m), m


def test_max_ap3_free_sizes_up_to_guard():
    # r_3(1..30), OEIS A003002.
    expected = [1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 8, 8, 8, 8, 9,
                9, 9, 9, 10, 10, 11, 11, 11, 11, 12]
    assert [max_ap3_free(m)[0] for m in range(1, 31)] == expected


@pytest.mark.parametrize("m", range(1, 11))
def test_max_ap3_free_matches_subset_scan(m):
    best = 0
    least = ()
    for bits in range(1 << m):
        subset = tuple(i + 1 for i in range(m) if bits >> i & 1)
        if ap3_brute(subset)[1] == 0:
            if len(subset) > best or len(subset) == best and subset < least:
                best, least = len(subset), subset
    assert max_ap3_free(m) == (best, least)


# ---------------------------------------------------------------------------
# Sphere construction.


def test_behrend_sphere_small():
    # base 2, dim 2: digit vectors over {0,1}^2, radix 3; norm 1 holds
    # (1,0) -> 1 and (0,1) -> 3, beating norms 0 and 2 on size ties... norm
    # 1 simply has two vectors, the most.
    assert behrend_sphere(9, 2, 2) == (1, 3)
    assert behrend_sphere(3, 2, 1) == (1,)


def test_behrend_sphere_progression_free():
    for base, dim in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        m = (2 * base - 1) ** dim
        s = behrend_sphere(m, base, dim)
        assert s == tuple(sorted(set(s)))
        assert count_ap3(s)[1] == 0
        assert all(1 <= x <= m for x in s)


def test_behrend_sphere_rejects_bad_arguments():
    with pytest.raises(ValueError):
        behrend_sphere(9, 1, 2)
    with pytest.raises(ValueError):
        behrend_sphere(9, 2, 0)
    with pytest.raises(ValueError):
        behrend_sphere(8, 2, 2)


def test_behrend_sphere_prices_its_vectors_before_building_any(monkeypatch):
    # 11^6 = 1,771,561 digit vectors fit radix 21^6 <= 10^8 but exceed the
    # default guard of 10^6: refused before the first one is built.
    monkeypatch.setattr(behrend, "itertools", None)
    with pytest.raises(SearchBudgetExceeded, match="^1771561 digit vectors exceed guard 1000000$"):
        behrend_sphere(10**8, 11, 6)
    # The guard admits base^dim vectors up to it, inclusive.
    monkeypatch.undo()
    monkeypatch.setattr(behrend, "SPHERE_VECTORS", 4)
    assert behrend_sphere(9, 2, 2) == (1, 3)
    with pytest.raises(SearchBudgetExceeded):
        behrend_sphere(27, 2, 3)


# ---------------------------------------------------------------------------
# Lifted lower-bound instances.


def test_build_lower_bound_instance_16_2():
    inst = build_lower_bound_instance(16, 2, [1, 2])
    assert inst.S == (1, 2, 5, 6, 9, 10, 13, 14)
    assert (inst.ap3_total, inst.ap3_nontrivial) == count_ap3(inst.S)
    assert inst.bound == 8**3 // 4


def test_build_lower_bound_instance_single_residue():
    inst = build_lower_bound_instance(16, 2, [1])
    assert inst.S == (1, 5, 9, 13)
    # One residue class: an arithmetic sub-progression with step 4, so
    # (1,5,9) and (5,9,13) appear in both orientations.
    assert inst.ap3_nontrivial == 4


def test_build_lower_bound_instance_empty():
    inst = build_lower_bound_instance(12, 3, [])
    assert inst.S == ()
    assert inst.ap3_total == 0


def test_build_lower_bound_counts_match_oracle():
    for m, x in [(2, (1, 2)), (4, (1, 2, 4)), (5, (2, 4, 5))]:
        inst = build_lower_bound_instance(8 * m, m, x)
        assert (inst.ap3_total, inst.ap3_nontrivial) == ap3_brute(inst.S)


def test_build_lower_bound_instance_errors():
    with pytest.raises(IndivisibleAmbient):
        build_lower_bound_instance(15, 2, [1, 2])
    with pytest.raises(ValueError, match="lie in"):
        build_lower_bound_instance(16, 2, [1, 3])
    with pytest.raises(ValueError, match="progression"):
        build_lower_bound_instance(24, 3, [1, 2, 3])
    # n and m below 1: no division by m = 0, no empty or negative lift.
    for n, m, xs in [(4, 0, []), (4, -1, []), (-4, 1, [1]), (0, 1, [1])]:
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            build_lower_bound_instance(n, m, xs)
    # Valid inputs outside the asymptotic regime break the coarse ceiling.
    with pytest.raises(ProgressionCeilingExceeded, match="exceeds"):
        build_lower_bound_instance(72, 9, [1, 3])


def test_build_lower_bound_guard_passthrough():
    with pytest.raises(SearchBudgetExceeded):
        build_lower_bound_instance(2048, 2, [1, 2], guard=500)
    inst = build_lower_bound_instance(2048, 2, [1, 2], guard=1100)
    assert len(inst.S) == 1024


def _no_digit_two(k):
    """The 2^k shifted base-3 numbers below 3^k with no digit 2: progression-free."""
    return [
        1 + sum(b * 3**i for i, b in enumerate(bits))
        for bits in itertools.product((0, 1), repeat=k)
    ]


def test_build_lower_bound_residue_guard_follows_the_caller():
    # X's pair scan is priced from the caller's guard: max(500, isqrt(guard)) elements.
    sphere = behrend_sphere(5**8, 3, 8)
    assert len(sphere) == 588
    with pytest.raises(SearchBudgetExceeded, match="588 elements exceed guard 500"):
        build_lower_bound_instance(2 * 5**8, 5**8, sphere)
    # At guard 10^6 X passes; with one block only the progression ceiling stops it.
    with pytest.raises(ProgressionCeilingExceeded):
        build_lower_bound_instance(2 * 5**8, 5**8, sphere, guard=10**6)
    xs = _no_digit_two(9)
    m = max(xs)
    inst = build_lower_bound_instance(2 * m * 185, m, xs, guard=10**6)
    assert (len(xs), m, len(inst.S)) == (512, 9842, 512 * 185)
    assert inst.ap3_total - inst.ap3_nontrivial == len(inst.S)
    with pytest.raises(SearchBudgetExceeded, match="512 elements exceed guard 500"):
        build_lower_bound_instance(2 * m * 185, m, xs, guard=10**5)
    with pytest.raises(SearchBudgetExceeded, match="1024 elements exceed guard 1000"):
        build_lower_bound_instance(2 * 29525, 29525, _no_digit_two(10), guard=10**6)


def test_build_lower_bound_guard_checked_before_the_lift():
    # |S| would be 10^12; the guard refuses it without building S.
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match="500000000000 elements exceed guard 500"):
        build_lower_bound_instance(10**12, 1, [1])
    assert time.perf_counter() - start < 1.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_residue_count_matches_pair_scan(data):
    m = data.draw(st.integers(min_value=1, max_value=12))
    x = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=m))))
    blocks = data.draw(st.integers(min_value=1, max_value=12))
    weight = ((blocks + 1) // 2) ** 2 + (blocks // 2) ** 2
    # The residue count needs periodicity only, not a progression-free X.
    lift = [v + 2 * m * k for k in range(blocks) for v in x]
    assert count_ap3(lift, guard=10**6)[0] == count_ap3(x)[0] * weight
    try:
        inst = build_lower_bound_instance(2 * m * blocks, m, x, guard=10**6)
    except (ValueError, ProgressionCeilingExceeded):
        return
    assert tuple(lift) == inst.S
    assert (inst.ap3_total, inst.ap3_nontrivial) == count_ap3(inst.S, guard=10**6)
    assert inst.ap3_total == len(x) * weight


def test_lifting_keeps_residues():
    inst = build_lower_bound_instance(40, 4, [1, 2])
    assert all(v % 8 in {1, 2} for v in inst.S)
    assert len(inst.S) == 40 * 2 // 8


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lifted_progressions_stay_in_one_residue(data):
    m = data.draw(st.integers(min_value=1, max_value=8))
    _, free = max_ap3_free(m)
    x = data.draw(st.sets(st.sampled_from(free or (1,)), max_size=len(free) or 1)) if free else set()
    blocks = data.draw(st.integers(min_value=1, max_value=4))
    if not all(1 <= v <= m for v in x) or ap3_brute(sorted(x))[1] != 0:
        return
    try:
        inst = build_lower_bound_instance(2 * m * blocks, m, sorted(x))
    except ProgressionCeilingExceeded as exc:
        # Tiny draws can sit outside the regime where the coarse ceiling
        # holds; only that failure is acceptable here.
        assert "exceeds" in str(exc)
        return
    members = set(inst.S)
    for a, c in itertools.product(inst.S, repeat=2):
        if (a + c) % 2 == 0 and (a + c) // 2 in members:
            assert a % (2 * m) == c % (2 * m)
