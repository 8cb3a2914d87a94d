import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import brute_count, brute_solutions, full_sets, mk_sets, mk_system, removal_oracle
from linrem.errors import EdgeNotInHost, InputError, RankDeficient, SearchBudgetExceeded
from linrem.field import PrimeField
from linrem.hrep import build_coefficients, build_host, copies_for_solution
from linrem.linsys import SetFamily, normalize, parse_system
from linrem.solutions import (
    _min_hitting_set,
    _packed_count,
    _paired_walk,
    _removal_floor,
    count_system,
    epsdelta_scan,
    iter_solutions,
    min_copy_hitting_set,
    plan_removal,
    solve,
    translate_edge_deletion,
)


def triangle5():
    return mk_system(5, [[1, 1, -1]], [0])


def triangle5_ns():
    return normalize(triangle5())


@st.composite
def small_systems(draw):
    """Raw (q, rows, rhs, sets) for 1 or 2 rows, zero coefficients allowed.

    At most 5, 4 or 3 values per set for 2, 3 or 4 unknowns, so the
    subset-scan oracle sees at most 12 elements.
    """
    q = draw(st.sampled_from([5, 7]))
    ell = draw(st.integers(min_value=1, max_value=2))
    p = draw(st.integers(min_value=ell + 1, max_value=4))
    entry = st.integers(min_value=0, max_value=q - 1)
    rows = [[draw(entry) for _ in range(p)] for _ in range(ell)]
    rhs = [draw(entry) for _ in range(ell)]
    size = min(q, 12 // p, 5)
    sets = [sorted(draw(st.sets(entry, max_size=size))) for _ in range(p)]
    return q, rows, rhs, sets


# ---------------------------------------------------------------------------
# Counting.


def test_count_triangle_small_sets():
    sets = mk_sets(5, [[1, 2]] * 3)
    assert count_system(triangle5(), sets) == 1
    assert count_system(triangle5(), sets, mode="naive") == 1


def test_count_triangle_full_sets():
    sets = full_sets(5, 3)
    assert count_system(triangle5(), sets) == 25
    assert count_system(triangle5(), sets, mode="naive") == 25


def test_count_empty_set_gives_zero():
    sets = mk_sets(5, [[1, 2], [], [1, 2]])
    assert count_system(triangle5(), sets) == 0
    assert count_system(triangle5(), sets, mode="naive") == 0


def test_count_dead_column_multiplies():
    # Column 3 has a zero coefficient everywhere, so it only scales T.
    system = mk_system(5, [[1, 1, 0, 4]], [0])
    base = mk_sets(5, [[1, 2], [1, 2], [0, 3, 4], [2]])
    assert count_system(system, base) == brute_count(system, base) == 3
    shrunk = base.replace(2, [0])
    assert count_system(system, shrunk) == brute_count(system, shrunk) == 1


def test_count_naive_guard():
    with pytest.raises(SearchBudgetExceeded):
        count_system(triangle5(), full_sets(5, 3), mode="naive", guard=100)


def test_iter_solutions_matches_brute():
    system = mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0])
    ns = normalize(system)
    sets = mk_sets(5, [[0, 1, 2], [1, 2, 3], [0, 2, 4], [1, 4]])
    found = list(iter_solutions(ns, sets))
    # check_copies names the first solution without copies in this order.
    assert found == sorted(found)
    unpermuted = set()
    for sol in found:
        orig = [0] * ns.p
        for j, v in enumerate(sol):
            orig[ns.perm[j]] = v
        unpermuted.add(tuple(orig))
    assert unpermuted == set(brute_solutions(system, sets))


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_solve_and_count_system_match_brute(case):
    q, rows, rhs, fam = case
    try:
        system = mk_system(q, rows, rhs)
    except RankDeficient:
        reject()
    sets = mk_sets(q, fam)
    found = list(solve(system, sets))
    assert sorted(found) == sorted(brute_solutions(system, sets))
    assert count_system(system, sets) == len(found)


def test_count_system_guard_on_reduced_route():
    # Two columns walked from each end of this fold: (5 + 25) * 2 = 60 steps.
    system = mk_system(5, [[1, 0, 1, 0], [0, 1, 0, 1]], [2, 0])
    assert count_system(system, full_sets(5, 4)) == 25
    assert count_system(system, full_sets(5, 4), guard=60) == 25
    with pytest.raises(SearchBudgetExceeded, match="60 steps"):
        count_system(system, full_sets(5, 4), guard=59)


@st.composite
def counting_systems(draw):
    """Raw (q, rows, rhs, sets) for 1 to 3 rows over F3 to F11.

    Zero coefficients are allowed, so all-zero columns, pins, folds and
    two-variable residuals all occur; set sizes keep the product small
    enough for the brute-force count.
    """
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    ell = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=ell + 1, max_value=min(ell + 3, 5)))
    entry = st.integers(min_value=0, max_value=q - 1)
    rows = [[draw(entry) for _ in range(p)] for _ in range(ell)]
    rhs = [draw(entry) for _ in range(ell)]
    size = min(q, {2: 11, 3: 8, 4: 5, 5: 4}[p])
    sets = [sorted(draw(st.sets(entry, max_size=size))) for _ in range(p)]
    return q, rows, rhs, sets


@settings(max_examples=150, deadline=None)
@given(counting_systems())
# an all-zero column
@example((7, [[1, 0, 3]], [2], [[0, 1, 2], [1, 4, 5], [2, 6]]))
# a pin, then a two-variable residual
@example((7, [[1, 1, 0], [0, 0, 1]], [0, 3], [[0, 1, 2], [0, 5, 6], [1, 3]]))
# a fold, then a two-variable residual
@example((5, [[1, 0, 1, 0], [0, 1, 0, 1]], [2, 0], [[0, 1, 2], [0, 1, 2], [1, 2, 3], [0, 3, 4]]))
# three rows, two of them pins
@example((3, [[1, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]], [0, 1, 2], [[0, 1, 2]] * 4))
# an empty set
@example((11, [[1, 2, 3]], [0], [[1, 2, 3], [], [4, 5]]))
# the smallest field
@example((2, [[1, 1, 1], [0, 1, 1]], [1, 0], [[0, 1], [0, 1], [0, 1]]))
# three dense rows
@example((5, [[1, 2, 3, 4, 1], [0, 1, 4, 2, 3], [1, 0, 2, 2, 4]], [1, 2, 3], [[0, 1, 3, 4]] * 5))
# an empty set under two rows
@example((7, [[1, 2, 3], [3, 0, 1]], [4, 2], [[0, 2, 5], [1, 6], []]))
def test_count_system_modes_match_brute(case):
    q, rows, rhs, fam = case
    try:
        system = mk_system(q, rows, rhs)
    except RankDeficient:
        reject()
    sets = mk_sets(q, fam)
    expected = brute_count(system, sets)
    assert count_system(system, sets) == expected
    assert count_system(system, sets, mode="naive") == expected
    # Both kernels on every draw, whichever one count_system picks; the
    # dict walk at every split between head and tail.
    assert _packed_count(system, sets) == expected
    for m in range(system.p + 1):
        assert _paired_walk(system, sets, m) == expected


@pytest.mark.parametrize("dead", [2, 4])
def test_packed_count_slot_holds_a_power_of_two(dead):
    # Every tuple lands in one slot: T = 16^dead = 2^8 or 2^16 is one
    # past the largest value an 8- or 16-bit slot holds.
    system = mk_system(17, [[1] + [0] * dead], [5])
    sets = mk_sets(17, [[5]] + [range(1, 17)] * dead)
    assert _packed_count(system, sets) == count_system(system, sets) == 16**dead


def test_count_seven_unknowns_over_f31():
    # 31^7 tuples. Walking three columns forward and four backward takes
    # (31 + 2 * 31^2) + (31 + 3 * 31^2) = 4867 steps; one way, 5797.
    system = mk_system(31, [[1, 2, 3, 4, 5, 6, 7]], [0])
    assert count_system(system, full_sets(31, 7)) == 887503681 == 31**6
    assert count_system(system, full_sets(31, 7), guard=4867) == 31**6
    with pytest.raises(SearchBudgetExceeded, match="4867 steps"):
        count_system(system, full_sets(31, 7), guard=4866)


def test_count_two_rows_over_f101():
    # ap4 with full sets over F101: two columns from each end take
    # 2 * (101 + 101^2) = 20604 steps; a one-way walk needs 2070904.
    system = mk_system(101, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0])
    assert count_system(system, full_sets(101, 4), guard=20604) == 101**2
    with pytest.raises(SearchBudgetExceeded, match="20604 steps"):
        count_system(system, full_sets(101, 4), guard=20603)


def test_count_bad_mode():
    with pytest.raises(ValueError):
        count_system(triangle5(), full_sets(5, 3), mode="weird")


def test_is_free():
    assert count_system(triangle5(), mk_sets(5, [[1, 2]] * 3)) != 0
    assert count_system(triangle5(), mk_sets(5, [[1]] * 3)) == 0
    assert count_system(triangle5(), mk_sets(5, [[], [1], [1]])) == 0


# ---------------------------------------------------------------------------
# Removal search.

MODES = ("per-set-max", "total")


def cost_of(res):
    return res.budget if res.mode == "per-set-max" else res.total


def assert_optimal(system, sets):
    """plan_removal frees the family at the oracle's cost in both modes."""
    for mode in MODES:
        res = plan_removal(system, sets, mode)
        assert brute_count(system, res.apply(sets)) == 0
        assert cost_of(res) == removal_oracle(system, sets, mode)


def test_removal_distance_spread_beats_single_set():
    system = mk_system(7, [[1, 1, -1]], [0])
    sets = mk_sets(7, [[1, 2, 3]] * 3)
    res = plan_removal(system, sets, "per-set-max")
    assert res.budget == 1 == removal_oracle(system, sets, "per-set-max")
    assert brute_count(system, res.apply(sets)) == 0
    res_total = plan_removal(system, sets, "total")
    assert res_total.total == 2 == removal_oracle(system, sets, "total")
    assert brute_count(system, res_total.apply(sets)) == 0


def test_removal_distance_single_element():
    sets = mk_sets(5, [[1, 2]] * 3)
    res = plan_removal(triangle5(), sets, "per-set-max")
    assert res.removed == ((1,), (), ())
    assert res.budget == 1 and res.total == 1


def test_removal_distance_free_input():
    sets = mk_sets(5, [[1]] * 3)
    res = plan_removal(triangle5(), sets)
    assert res.removed == ((), (), ())
    assert res.budget == 0


def test_removal_distance_guard():
    with pytest.raises(SearchBudgetExceeded):
        plan_removal(triangle5(), full_sets(5, 3), guard=14)


def test_removal_bad_mode():
    with pytest.raises(ValueError):
        plan_removal(triangle5(), mk_sets(5, [[1]] * 3), mode="weird")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_removal_matches_oracle(data):
    q = data.draw(st.sampled_from([5, 7]))
    fld = PrimeField(q)
    row = [data.draw(st.integers(min_value=1, max_value=q - 1)) for _ in range(3)]
    system = mk_system(q, [row], [data.draw(st.integers(min_value=0, max_value=q - 1))])
    sets = SetFamily.make(
        fld,
        [
            data.draw(st.sets(st.integers(min_value=0, max_value=q - 1), max_size=3))
            for _ in range(3)
        ],
    )
    assert_optimal(system, sets)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_systems())
# pin with a two-variable residual
@example((7, [[1, 1, 0], [0, 0, 1]], [0, 3], [[0, 1, 2], [0, 5, 6], [1, 3]]))
# pin whose value is outside its set
@example((7, [[1, 1, 0], [0, 0, 1]], [0, 3], [[1, 2], [3, 5], [1, 2]]))
# fold, then a two-variable residual
@example((5, [[1, 0, 1, 0], [0, 1, 0, 1]], [2, 0], [[0, 1, 2], [0, 1, 2], [1, 2, 3], [0, 3, 4]]))
# fold, then a three-entry residual row
@example((5, [[1, 1, 1, 0], [1, 0, 0, 1]], [0, 2], [[0, 1, 2], [1, 2, 3], [0, 2, 4], [1, 2, 3]]))
# a bare two-variable equation, both sets {0,3,4}
@example((5, [[2, 1]], [3], [[0, 3, 4], [0, 3, 4]]))
# a two-variable equation beside an idle unknown
@example((7, [[1, 1, 0]], [4], [[1, 2], [2, 3], [0, 1, 2, 3]]))
# two pins leave one unconstrained column
@example((5, [[0, 1, 0], [0, 0, 1]], [2, 3], [[0, 4], [1, 2], [2, 3]]))
# an empty set
@example((7, [[1, 2, 3]], [0], [[1, 2, 3], [], [4, 5]]))
def test_plan_removal_matches_oracle_on_degenerate_systems(case):
    q, rows, rhs, fam = case
    try:
        system = mk_system(q, rows, rhs)
    except RankDeficient:
        reject()
    sets = mk_sets(q, fam)
    assert_optimal(system, sets)
    # Per-set-max answers are irredundant: every deletion is needed.
    res = plan_removal(system, sets, "per-set-max")
    for i, vals in enumerate(res.removed):
        for v in vals:
            kept_back = [set(r) for r in res.removed]
            kept_back[i].discard(v)
            assert brute_count(system, sets.with_removed(kept_back)) > 0


# ---------------------------------------------------------------------------
# The Cauchy-Davenport floor of the removal searches.


@st.composite
def floor_systems(draw):
    """Raw (q, rows, rhs, sets) on which the Cauchy-Davenport floor often fires.

    One row, two column-disjoint rows or two general rows over F3, F5 or
    F7. Zero coefficients are allowed, so pins and idle columns occur.
    Sets are drawn large, some empty, with at most 14 elements in all.
    """
    q = draw(st.sampled_from([3, 5, 7]))
    entry = st.integers(min_value=0, max_value=q - 1)
    shape = draw(st.sampled_from(["one", "disjoint", "two"]))
    if shape == "one":
        rows = [[draw(entry) for _ in range(draw(st.integers(min_value=2, max_value=4)))]]
    elif shape == "disjoint":
        left = draw(st.integers(min_value=1, max_value=2))
        right = draw(st.integers(min_value=3 - left, max_value=2))
        rows = [
            [draw(entry) for _ in range(left)] + [0] * right,
            [0] * left + [draw(entry) for _ in range(right)],
        ]
    else:
        p = draw(st.integers(min_value=3, max_value=4))
        rows = [[draw(entry) for _ in range(p)] for _ in range(2)]
    rhs = [draw(entry) for _ in rows]
    room = 14
    sets = []
    for _ in rows[0]:
        top = min(q, room)
        size = draw(st.one_of(st.just(top), st.integers(min_value=0, max_value=top)))
        sets.append(draw(st.lists(entry, min_size=size, max_size=size, unique=True)))
        room -= size
    return q, rows, rhs, sets


@settings(max_examples=30, deadline=None, derandomize=True)
@given(floor_systems())
# x1 + x2 + x3 = 0 over F3 with full sets: floors 2 and 3
@example((3, [[1, 1, 1]], [0], [[0, 1, 2]] * 3))
# two column-disjoint two-variable rows with full sets, as in fold.sys
@example((3, [[1, 0, 1, 0], [0, 1, 0, 1]], [2, 0], [[0, 1, 2]] * 4))
# a pin beside a full row
@example((5, [[1, 1, 0], [0, 0, 1]], [0, 3], [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 3]]))
# an empty set
@example((7, [[1, 2, 3]], [0], [[1, 2, 3, 4, 5, 6], [], [0, 4, 5, 6]]))
def test_removal_floor_is_a_lower_bound(case):
    q, rows, rhs, fam = case
    try:
        system = mk_system(q, rows, rhs)
    except RankDeficient:
        reject()
    sets = mk_sets(q, fam)
    free = brute_count(system, sets) == 0
    for mode in MODES:
        floor = _removal_floor(system, sets, mode)
        assert floor <= removal_oracle(system, sets, mode)
        if free:
            assert floor == 0


def test_removal_floor_skips_the_caps_below_it():
    # Cauchy-Davenport keeps x1 + x2 + x3 = 0 over F7 solvable until
    # 21 - 7 - 3 + 2 = 13 values go, five from some one set. Deepening
    # from cap 0 takes 115,801 nodes; from the floor, 14.
    system = mk_system(7, [[1, 1, 1]], [0])
    sets = full_sets(7, 3)
    assert _removal_floor(system, sets, "per-set-max") == 5
    assert _removal_floor(system, sets, "total") == 7
    res = plan_removal(system, sets, node_budget=14)
    assert res.removed == ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (2, 3, 4))
    with pytest.raises(SearchBudgetExceeded, match="passed 13 nodes at cap 5, deepening from floor 5"):
        plan_removal(system, sets, node_budget=13)


def test_removal_floor_of_fold_sys():
    # Two column-disjoint rows on two columns each, full sets over F5:
    # excess 5 + 5 - 5 - 2 + 2 = 5 per row, so ceil(5 / 2) = 3 per set.
    text = (Path(__file__).resolve().parent.parent / "systems" / "fold.sys").read_text()
    system, sets = parse_system(text)
    assert _removal_floor(system, sets, "per-set-max") == 3
    assert _removal_floor(system, sets, "total") == 5
    assert plan_removal(system, sets).budget == 3


def test_budget_errors_say_how_far_the_search_got():
    # Two rows sharing columns: no floor, so the deepening starts at 0.
    system = mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0])
    sets = full_sets(5, 4)
    assert _removal_floor(system, sets, "per-set-max") == 0
    with pytest.raises(SearchBudgetExceeded, match="passed 100 nodes at cap 2, deepening from floor 0"):
        plan_removal(system, sets, node_budget=100)
    # The total-mode search settles that instance at its root (below), so
    # it is timed on a draw of x1 + x2 = x3 over F11 with 8-element sets:
    # greedy covers with 9, and the search stops on reaching the floor's 8
    # within 24 nodes.
    tri = mk_system(11, [[1, 1, -1]], [0])
    draw = mk_sets(11, [[0, 2, 3, 4, 7, 8, 9, 10], [0, 1, 3, 4, 5, 7, 8, 9], [1, 4, 5, 6, 7, 8, 9, 10]])
    with pytest.raises(SearchBudgetExceeded, match="passed 20 nodes; best cover so far has 8 elements"):
        plan_removal(tri, draw, "total", node_budget=20)
    assert plan_removal(tri, draw, "total", node_budget=24).total == 8


def test_total_removal_packing_settles_at_the_root():
    # Two rows get no Cauchy-Davenport floor, but the five constant
    # progressions share no element, so no cover beats the greedy five.
    system = mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0])
    res = plan_removal(system, full_sets(5, 4), "total", node_budget=1)
    assert res.removed == ((0, 1, 2, 3, 4), (), (), ())


# ---------------------------------------------------------------------------
# Degenerate systems: pins, folds and two-variable residuals.


def test_plan_removal_normalizable_matches_distance():
    system = mk_system(5, [[1, 1, -1]], [0])
    sets = mk_sets(5, [[1, 2]] * 3)
    assert plan_removal(system, sets).removed == ((1,), (), ())


def test_plan_removal_prefers_pin_deletion():
    system = mk_system(7, [[1, 1, 0], [0, 0, 1]], [0, 3])
    sets = mk_sets(7, [range(7), range(7), [1, 3]])
    res = plan_removal(system, sets, guard=30)
    assert res.removed == ((), (), (3,))
    assert res.budget == 1
    assert brute_count(system, res.apply(sets)) == 0


def test_plan_removal_empty_pin_needs_nothing():
    system = mk_system(7, [[1, 1, 0], [0, 0, 1]], [0, 3])
    sets = mk_sets(7, [range(7), range(7), [1, 2]])
    res = plan_removal(system, sets, guard=30)
    assert res.budget == 0


def test_plan_removal_two_var_route():
    # Five (x1, x3) pairs to destroy; three go through x1, two through x3.
    system = mk_system(5, [[1, 0, 1, 0], [0, 1, 0, 1]], [2, 0])
    sets = full_sets(5, 4)
    res = plan_removal(system, sets, guard=30)
    assert res.removed == ((0, 1, 2), (), (3, 4), ())
    assert res.budget == 3
    assert brute_count(system, res.apply(sets)) == 0


def test_plan_removal_all_pins_deletes_one_value():
    system = mk_system(5, [[0, 1, 0], [0, 0, 1]], [2, 3])
    sets = mk_sets(5, [[0, 4], range(5), range(5)])
    res = plan_removal(system, sets, guard=30)
    assert res.budget == res.total == 1
    assert brute_count(system, res.apply(sets)) == 0


def test_two_var_removal_pair_deletion():
    # One value from each side beats two from the same side.
    system = mk_system(7, [[1, 1, 0]], [4])
    sets = mk_sets(7, [[1, 2], [2, 3], range(7)])
    res = plan_removal(system, sets)
    assert res.removed == ((1,), (2,), ())
    assert res.budget == 1
    assert_optimal(system, sets)


def test_two_var_removal_idle_empty_is_already_free():
    system = mk_system(7, [[1, 1, 0]], [4])
    sets = mk_sets(7, [[1, 2], [2, 3], []])
    assert plan_removal(system, sets).total == 0
    assert_optimal(system, sets)


def test_two_var_removal_no_hitting_pairs():
    system = mk_system(7, [[1, 1, 0]], [4])
    sets = mk_sets(7, [[1], [1], range(7)])
    assert plan_removal(system, sets).total == 0
    assert_optimal(system, sets)


def test_two_var_removal_small_idle_set_wins():
    system = mk_system(7, [[1, 1, 0]], [4])
    sets = mk_sets(7, [[1, 2], [2, 3], [0]])
    res = plan_removal(system, sets, "total")
    assert res.removed == ((), (), (0,))
    assert brute_count(system, res.apply(sets)) == 0
    assert_optimal(system, sets)


# ---------------------------------------------------------------------------
# Edge-deletion translation and copy hitting.


def triangle_host(sets):
    ns = triangle5_ns()
    return build_host(ns, build_coefficients(ns), sets)


def test_translate_threshold_crossed():
    sets = mk_sets(5, [[1, 2]] * 3)
    host = triangle_host(sets)
    doomed = [(2, key) for key, stored in host.by_key.items() if stored == (2, 2)]
    assert len(doomed) == 5
    out = translate_edge_deletion(host, doomed, sets)
    assert out.sets == ((1, 2), (1, 2), (1,))
    assert brute_count(mk_system(5, [[1, 1, -1]], [0]), out) == 0


def test_translate_single_edge_below_threshold():
    sets = mk_sets(5, [[1, 2]] * 3)
    host = triangle_host(sets)
    key, (color, _) = next(iter(host.by_key.items()))
    out = translate_edge_deletion(host, [(color, key)], sets)
    assert out.sets == sets.sets


def test_translate_unknown_edge_rejected():
    sets = mk_sets(5, [[1, 2]] * 3)
    host = triangle_host(sets)
    key = next(iter(host.by_key))
    with pytest.raises(EdgeNotInHost):
        translate_edge_deletion(host, [(2, key)], sets)
    with pytest.raises(EdgeNotInHost):
        translate_edge_deletion(host, [(0, (0, 999))], sets)


def test_translate_per_set_bound():
    sets = mk_sets(5, [[1, 2]] * 3)
    host = triangle_host(sets)
    p, n, r = 3, host.n, host.r
    edges = [(c, key) for key, (c, _) in host.by_key.items()]
    for take in (1, 4, 7, len(edges)):
        chosen = edges[:take]
        out = translate_edge_deletion(host, chosen, sets)
        removed = [
            len(set(a) - set(b)) for a, b in zip(sets.sets, out.sets)
        ]
        assert max(removed) <= (p * take) // n ** (r - 1)


def test_translate_frees_multi_row_families_from_greedy_covers():
    # The translation step needs neither a minimum cover nor a single row:
    # any edge set meeting every copy frees the family, removing at most
    # p*|E|/n^(r-1) values from each set.
    rng = random.Random(17)
    built = Counter()
    redundant = 0
    while sum(built.values()) < 60:
        q = rng.choice((3, 5, 7))
        ell = rng.choice((1, 2))
        p = rng.randint(ell + 1, 4)
        try:
            system = mk_system(q, [[rng.randrange(q) for _ in range(p)] for _ in range(ell)],
                               [rng.randrange(q) for _ in range(ell)])
            ns = normalize(system)
        except InputError:
            continue
        sets = mk_sets(q, [rng.sample(range(q), rng.randint(1, q)) for _ in range(p)])
        solutions = list(iter_solutions(ns, sets))
        if not 1 <= len(solutions) <= 20:
            continue
        host = build_host(ns, build_coefficients(ns), sets)
        copies = host.copy_edges(c for sol in solutions for c in copies_for_solution(host, sol))
        # A random greedy cover: each copy not yet hit gives up a random edge.
        rng.shuffle(copies)
        hitting: list = []
        for c in copies:
            if not set(c) & set(hitting):
                hitting.append(rng.choice(c))
        redundant += any(
            all(set(c) & (set(hitting) - {e}) for c in copies) for e in hitting
        )
        surviving = translate_edge_deletion(host, hitting, sets)
        assert brute_count(system, surviving) == 0, (q, system.rows, sets.sets)
        cap = p * len(hitting) // host.n ** (host.r - 1)
        assert all(len(a) - len(b) <= cap for a, b in zip(sets.sets, surviving.sets))
        built[ell] += 1
    assert built[2] >= 15 and redundant >= 10, (built, redundant)


def test_min_hitting_empty():
    assert min_copy_hitting_set(triangle_host(mk_sets(5, [[1, 2]] * 3)), []) == ()


def test_min_hitting_disjoint_copies():
    sets = mk_sets(5, [[1, 2]] * 3)
    host = triangle_host(sets)
    copies = copies_for_solution(host, (1, 1, 2))
    hits = min_copy_hitting_set(host, copies)
    assert len(hits) == 5
    for edges in host.copy_edges(copies):
        assert any(e in edges for e in hits)


def test_min_hitting_shared_edge():
    shared = (0, (1, 2))
    rows = [(shared, (1, (3, 4))), (shared, (2, (5, 6)))]
    assert _min_hitting_set(rows, node_budget=10**5) == [shared]


def test_min_hitting_beats_its_greedy_cover():
    # g hits four rows, so greedy takes it and then needs a and b too;
    # the two rows that only a or only b hits pack to 2, which a, b meets.
    rows = [("a", "g"), ("a", "g"), ("a",), ("b", "g"), ("b", "g"), ("b",)]
    assert sorted(_min_hitting_set(rows, node_budget=10**5)) == ["a", "b"]


def test_min_hitting_set_matches_a_subset_scan():
    # Stub families of up to 10 rows over at most 8 elements. The kernel's
    # cover must hit every row and be as small as the smallest subset that
    # does, from the default floor and from any floor at most that size.
    rng = random.Random(20261019)
    for _ in range(1000):
        elements = list("abcdefgh"[: rng.randint(1, 8)])
        rows = [
            tuple(rng.sample(elements, rng.randint(1, min(4, len(elements)))))
            for _ in range(rng.randint(1, 10))
        ]
        best = next(
            size
            for size in range(len(elements) + 1)
            if any(
                all(set(row) & set(pick) for row in rows)
                for pick in itertools.combinations(elements, size)
            )
        )
        for floor in (0, rng.randint(0, best)):
            cover = _min_hitting_set(rows, node_budget=10**5, floor=floor)
            assert len(cover) == len(set(cover)) == best
            assert all(set(row) & set(cover) for row in rows)


def test_min_hitting_rejects_a_copy_off_the_parts():
    # (0, 5, 6) puts two vertices in U1 and none in U2.
    host = triangle_host(mk_sets(5, [[1, 2]] * 3))
    copies = [*copies_for_solution(host, (1, 1, 2)), (0, 5, 6)]
    with pytest.raises(ValueError, match=r"copy \(0, 5, 6\) does not meet every part once"):
        min_copy_hitting_set(host, copies)


def test_min_hitting_guard():
    host = triangle_host(mk_sets(5, [[1, 2]] * 3))
    copies = copies_for_solution(host, (1, 1, 2))
    with pytest.raises(SearchBudgetExceeded, match="5 copies exceed hitting-set guard 4"):
        min_copy_hitting_set(host, copies, guard=4)


def test_min_hitting_node_budget():
    # Pairwise-overlapping two-element rows force real branching.
    rows = [((0, (i,)), (0, (j,))) for i in range(8) for j in range(i + 1, 8)]
    # Hitting every pair from an 8-element universe needs 7 singletons.
    assert len(_min_hitting_set(rows, node_budget=100_000)) == 7
    with pytest.raises(SearchBudgetExceeded, match="passed 3 nodes; best cover so far has 7 elements"):
        _min_hitting_set(rows, node_budget=3)


def test_min_copy_hitting_set_forwards_its_node_budget():
    # The three solutions of x+y=z over {0,1} span 15 copies that share
    # edges, so the exact search branches: it needs 71 nodes for 8 edges.
    host = triangle_host(mk_sets(5, [[0, 1]] * 3))
    copies = [c for sol in ((0, 0, 0), (0, 1, 1), (1, 0, 1)) for c in copies_for_solution(host, sol)]
    hits = min_copy_hitting_set(host, copies, node_budget=71)
    assert len(hits) == 8 and list(hits) == sorted(hits)
    assert all(set(edges) & set(hits) for edges in host.copy_edges(copies))
    with pytest.raises(SearchBudgetExceeded, match="passed 3 nodes; best cover so far has 10 elements"):
        min_copy_hitting_set(host, copies, node_budget=3)


# ---------------------------------------------------------------------------
# Ratio scan.


def test_epsdelta_no_trials():
    assert epsdelta_scan(triangle5_ns().base, lambda t: full_sets(5, 3), 0) == []


def test_epsdelta_triangle_records():
    families = [
        mk_sets(5, [[1, 2]] * 3),
        mk_sets(5, [[1]] * 3),
    ]
    records = epsdelta_scan(triangle5_ns().base, lambda t: families[t], 2)
    assert records == [(5, 1 / 25, 1 / 5), (5, 0.0, 0.0)]
