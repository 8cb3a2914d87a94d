import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_count, brute_solutions, cofactor_det, mk_sets, mk_system
from linrem.errors import EmptyW, NoFreeColumns, ParseError, RankDeficient
from linrem.field import PrimeField
from linrem.linsys import (
    LinearSystem,
    SetFamily,
    block_identity,
    format_system,
    from_integer_system,
    mat_rank,
    mat_vec,
    normalize,
    parse_system,
    reduce_degenerate,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


# ---------------------------------------------------------------------------
# Matrix helpers.


def test_mat_rank_proportional_rows():
    assert mat_rank(F7, [[1, 2], [2, 4]]) == 1
    assert mat_rank(F7, [[1, 2], [2, 5]]) == 2
    assert mat_rank(F7, [[0, 0], [0, 0]]) == 0
    assert mat_rank(F5, [[2, 1], [1, 1]]) == 2
    assert mat_rank(F5, [[1, 2], [2, 4]]) == 1


def test_mat_vec():
    assert mat_vec(F5, [[1, 1, 4]], [1, 1, 2]) == [0]
    assert mat_vec(F7, [[1, 1, 6]], [2, 2, 1]) == [3]


# ---------------------------------------------------------------------------
# Data model validation.


def test_system_shape_validation():
    with pytest.raises(ValueError):
        LinearSystem.make(F5, [[1, 1], [1, 2]], [0, 0])  # ell == p
    with pytest.raises(ValueError):
        LinearSystem.make(F5, [[1, 1, 1]], [0, 0])  # rhs length
    with pytest.raises(RankDeficient):
        LinearSystem.make(F7, [[1, 2, 0], [2, 4, 0]], [0, 0])


def test_set_family_canonicalization():
    fam = SetFamily.make(F5, [[7, 2, -1], []])
    assert fam.sets == ((2, 4), ())
    assert fam.sizes() == (2, 0)
    assert fam.total_size() == 2
    assert SetFamily.full(F5, 2).sets == ((0, 1, 2, 3, 4),) * 2


def test_with_removed_and_replace():
    fam = SetFamily.make(F5, [[1, 2, 3], [0, 4]])
    assert fam.with_removed([{2}, set()]).sets == ((1, 3), (0, 4))
    assert fam.replace(1, [3, 3, 1]).sets == ((1, 2, 3), (1, 3))


# ---------------------------------------------------------------------------
# Normalization. Expected values hand-derived from the pivot rules; every
# case is cross-checked against the exhaustive solution-set oracle below.


def solution_sets_match(system, ns):
    """Exhaustive check: x solves the input iff perm(x) solves the output."""
    q = system.field.q
    for x in itertools.product(range(q), repeat=system.p):
        permuted = tuple(x[ns.perm[j]] for j in range(system.p))
        if system.is_solution(x) != ns.base.is_solution(permuted):
            return False
    return True


def test_normalize_triangle_f7():
    system = mk_system(7, [[1, 1, -1]], [0])
    ns = normalize(system)
    assert ns.base.rows == ((1, 1, 6),)
    assert ns.base.rhs == (0,)
    assert ns.perm == (0, 1, 2)
    assert ns.pivots == (1,)
    assert ns.support == ((0,),)
    assert ns.diag_cols == (2,)
    assert ns.blocks == ((0,),)
    assert ns.uniformity == 2
    assert ns.vertex_count == 3
    assert solution_sets_match(system, ns)


def test_normalize_ap4_f5():
    system = mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0])
    ns = normalize(system)
    assert ns.base.rows == ((2, 1, 2, 0), (1, 1, 0, 3))
    assert ns.base.rhs == (0, 0)
    assert ns.pivots == (1, 1)
    assert ns.support == ((0,), (0,))
    assert ns.diag_cols == (2, 3)
    assert ns.blocks == ((0,), (1,))
    assert ns.uniformity == 3
    assert ns.vertex_count == 4
    assert solution_sets_match(system, ns)


def test_normalize_idempotent():
    system = mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0])
    once = normalize(system)
    twice = normalize(once.base)
    assert twice.base == once.base
    assert twice.perm == (0, 1, 2, 3)
    assert twice.pivots == once.pivots
    assert twice.support == once.support


def test_normalize_moves_block_preserving_order():
    # The zero last column cannot join the block, so column 3 does; free
    # columns keep their relative order in front of it.
    system = mk_system(7, [[1, 2, 3, 0]], [4])
    ns = normalize(system)
    assert ns.perm == (0, 1, 3, 2)
    # Block reduction scales by inv(3), then the pivot itself scales to 1.
    assert ns.base.rows == ((4, 1, 0, 5),)
    assert ns.base.rhs == (2,)
    assert ns.pivots == (1,)
    assert ns.support == ((0,),)
    assert solution_sets_match(system, ns)


def test_normalize_bare_pivot_raises_emptyw():
    system = mk_system(7, [[1, 1, 0]], [4])
    with pytest.raises(EmptyW):
        normalize(system)


def test_normalize_dead_free_row_raises():
    system = mk_system(5, [[1, 1, 1, 0], [0, 0, 0, 1]], [0, 3])
    with pytest.raises(NoFreeColumns):
        normalize(system)


def _independent(q, rows, cols) -> bool:
    """Columns cols of rows are independent: some square minor on them is nonzero."""
    return any(
        cofactor_det(q, [[rows[i][j] for j in cols] for i in picked])
        for picked in itertools.combinations(range(len(rows)), len(cols))
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_block_identity_randomized(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ell = data.draw(st.integers(min_value=1, max_value=4))
    p = data.draw(st.integers(min_value=ell + 1, max_value=min(ell + 3, 6)))
    entry = st.integers(min_value=0, max_value=q - 1)
    rows = [[data.draw(entry) for _ in range(p)] for _ in range(ell)]
    try:
        system = mk_system(q, rows, [data.draw(entry) for _ in range(ell)])
    except RankDeficient:
        return
    sets = mk_sets(q, [data.draw(st.sets(entry, max_size=3)) for _ in range(p)])
    out_rows, rhs, perm = block_identity(system)
    free = p - ell
    assert sorted(perm) == list(range(p)) and perm[:free] == sorted(perm[:free])
    for i, row in enumerate(out_rows):
        assert row[free:] == [int(k == i) for k in range(ell)]
    # Greedy right to left: a column joins the block iff it is independent
    # of the block columns to its right.
    block = set(perm[free:])
    for j in range(p):
        right = [c for c in sorted(block) if c > j]
        assert (j in block) == _independent(q, system.rows, right + [j])
    found = {
        x
        for x in itertools.product(*sets.sets)
        if all(
            sum(c * x[perm[k]] for k, c in enumerate(row)) % q == b
            for row, b in zip(out_rows, rhs)
        )
    }
    assert found == set(brute_solutions(system, sets))


# ---------------------------------------------------------------------------
# Degenerate-row reduction.


def test_reduce_pin_then_two_var_residual():
    system = mk_system(7, [[1, 1, 0], [0, 0, 1]], [0, 3])
    sets = mk_sets(7, [range(7), range(7), [1, 3]])
    red = reduce_degenerate(system, sets)
    assert red.kind == "two_var"
    assert red.dropped == ((2, 3, ()),)
    assert red.system.rows == ((1, 1),)
    assert red.system.rhs == (0,)
    assert red.kept_columns == (0, 1)
    assert red.sets.sets == (tuple(range(7)), tuple(range(7)))


def test_reduce_pin_outside_set_is_empty():
    system = mk_system(7, [[1, 1, 0], [0, 0, 1]], [0, 3])
    sets = mk_sets(7, [range(7), range(7), [1, 2]])
    red = reduce_degenerate(system, sets)
    assert red.kind == "empty"
    assert red.system is None
    assert red.dropped == ((2, 3, ()),)
    assert brute_count(system, sets) == 0


def test_reduce_fold_updates_kept_set():
    system = mk_system(5, [[1, 0, 1, 0], [0, 1, 0, 1]], [2, 0])
    sets = SetFamily.full(F5, 4)
    red = reduce_degenerate(system, sets)
    # Row 1 folds x3 into x1; the remaining single two-entry row stays put.
    assert red.kind == "two_var"
    assert red.dropped == ((2, 2, ((0, 1),)),)
    assert red.kept_columns == (0, 1, 3)
    assert red.sets.sets[0] == tuple(range(5))
    residual = [
        tup for tup in itertools.product(*red.sets.sets) if red.system.is_solution(tup)
    ]
    lifted = {red.lift(sol) for sol in residual}
    assert len(lifted) == len(residual) == brute_count(system, sets) == 25
    assert all(system.is_solution(x) for x in lifted)


def test_reduce_fold_narrows_kept_set():
    # x2 = 1 - x1 pulls x1 down to the preimage of S2.
    system = mk_system(5, [[1, 1, 0], [1, 0, 1]], [1, 0])
    sets = mk_sets(5, [range(5), [0, 1], range(5)])
    red = reduce_degenerate(system, sets)
    assert red.kind == "two_var"
    assert red.dropped == ((1, 1, ((0, 1),)),)
    assert red.sets.sets[0] == (0, 1)
    lifted = {red.lift(sol) for sol in brute_solutions(red.system, red.sets)}
    assert lifted == set(brute_solutions(system, sets))


def test_reduce_keeps_long_rows():
    system = mk_system(7, [[1, 1, 1, 0], [0, 0, 0, 1]], [0, 3])
    sets = SetFamily.full(F7, 4)
    red = reduce_degenerate(system, sets)
    assert red.kind == "reduced"
    assert red.dropped == ((3, 3, ()),)
    assert red.system.rows == ((1, 1, 1),)
    assert red.kept_columns == (0, 1, 2)


def test_reduce_to_zero_rows_is_unconstrained():
    system = mk_system(5, [[0, 1, 0], [0, 0, 1]], [2, 3])
    sets = mk_sets(5, [[0, 4], range(5), range(5)])
    red = reduce_degenerate(system, sets)
    assert red.kind == "unconstrained"
    assert red.kept_columns == (0,)
    assert red.sets.sets == ((0, 4),)
    assert {red.lift((v,)) for v in red.sets.sets[0]} == set(brute_solutions(system, sets))


def test_reduce_counts_preserved_via_lift():
    rng_cases = [
        ([[1, 1, 0], [0, 0, 1]], [0, 3], [range(7), range(7), [1, 3]], 7),
        ([[1, 0, 1, 0], [0, 1, 0, 1]], [2, 0], [range(5)] * 4, 5),
        ([[2, 3, 0], [0, 0, 2]], [1, 4], [[0, 1, 2], [1, 4], [2, 3]], 5),
    ]
    for rows, rhs, sets, q in rng_cases:
        system = mk_system(q, rows, rhs)
        fam = mk_sets(q, sets)
        red = reduce_degenerate(system, fam)
        if red.kind == "empty":
            assert brute_count(system, fam) == 0
            continue
        if red.kind == "unconstrained":
            residual = list(itertools.product(*red.sets.sets))
        else:
            residual = brute_solutions(red.system, red.sets)
        lifted = {red.lift(sol) for sol in residual}
        assert len(lifted) == len(residual)
        assert lifted == set(brute_solutions(system, fam))


# ---------------------------------------------------------------------------
# File format.


TRIANGLE7 = """field 7
system 1 3
1 1 -1
rhs 0
set all
set all
set all
"""


def test_parse_triangle():
    system, sets = parse_system(TRIANGLE7)
    assert system.rows == ((1, 1, 6),)
    assert system.rhs == (0,)
    assert sets.sets == (tuple(range(7)),) * 3


def test_parse_comments_and_blanks():
    text = "# header\nfield 5\n\nsystem 1 3  # dims\n1 1 -1\nrhs 0\nset 1,2\nset\nset all\n"
    system, sets = parse_system(text)
    assert system.field.q == 5
    assert sets.sets == ((1, 2), (), (0, 1, 2, 3, 4))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_system("meadow 7\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_system("field 7\nsystem 3 3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_system("field 7\nsystem 1 3\n1 1\nrhs 0\nset all\nset all\nset all\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_system("field 7\nsystem 1 3\n1 1 -1\nrhs 0 0\nset all\nset all\nset all\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_system("field 5\nsystem 1 3\n1 1 -1\nrhs 0\nset 1,6\nset all\nset all\n")
    with pytest.raises(ParseError, match="trailing"):
        parse_system(TRIANGLE7 + "set all\n")
    with pytest.raises(ParseError, match="unexpected end"):
        parse_system("field 7\nsystem 1 3\n1 1 -1\nrhs 0\nset all\n")
    head = "field 7\nsystem 1 3\n1 1 -1\n"
    for text, message in [
        ("field seven\n", "line 1: modulus must be an integer"),
        ("field 7\nsystem 1\n", "line 2: expected 'system <ell> <p>'"),
        ("field 7\nsystem one 3\n", "line 2: system dimensions must be integers"),
        (head + "rhs x\n", "line 4: rhs entries must be integers"),
        (head + "rhs 0\nset 1 2\n", "line 5: expected 'set all', 'set v1,v2,...' or bare 'set'"),
        (head + "rhs 0\nset all\nset 1,two\n", "line 6: set values must be integers"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert str(err.value) == message


def test_parse_rank_deficient():
    with pytest.raises(RankDeficient):
        parse_system("field 7\nsystem 2 3\n1 2 0\n2 4 0\nrhs 0 0\nset all\nset all\nset all\n")


def test_format_round_trip():
    system, sets = parse_system(TRIANGLE7)
    # -1 canonicalizes to 6, so formatting is stable from the parsed form on.
    canonical = format_system(system, sets)
    again_sys, again_sets = parse_system(canonical)
    assert format_system(again_sys, again_sets) == canonical
    assert again_sys == system and again_sets == sets


def test_format_set_spellings():
    system = mk_system(5, [[1, 1, -1]], [0])
    sets = SetFamily(F5, ((0, 1, 2, 3, 4), (), (1, 3)))
    text = format_system(system, sets)
    assert "set all\nset\nset 1,3\n" in text


# ---------------------------------------------------------------------------
# Integer embedding.


def test_integer_embedding_known_prime():
    fld, system = from_integer_system([[1, 1, -1]], [0], 10)
    # c=1, p=3, n=10 -> first prime above 90.
    assert fld.q == 97
    assert system.rows == ((1, 1, 96),)


def test_integer_embedding_preserves_solutions():
    rows, rhs, n = [[2, -1, 1], [1, 1, -3]], [3, 0], 6
    fld, system = from_integer_system(rows, rhs, n)
    sets = [range(1, n + 1)] * 3
    over_z = {
        tup
        for tup in itertools.product(*sets)
        if all(
            sum(c * x for c, x in zip(row, tup)) == b
            for row, b in zip(rows, rhs)
        )
    }
    fam = SetFamily.make(fld, sets)
    over_q = set(brute_solutions(system, fam))
    assert over_z == over_q


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normalize_preserves_solutions_randomized(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    p = data.draw(st.integers(min_value=2, max_value=4))
    ell = data.draw(st.integers(min_value=1, max_value=p - 1))
    fld = PrimeField(q)
    rows = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=q - 1), min_size=p, max_size=p),
            min_size=ell,
            max_size=ell,
        )
    )
    if mat_rank(fld, rows) != ell:
        return
    system = LinearSystem.make(fld, rows, [0] * ell)
    try:
        ns = normalize(system)
    except (EmptyW, NoFreeColumns):
        return
    assert solution_sets_match(system, ns)
    again = normalize(ns.base)
    assert again.base == ns.base and again.perm == tuple(range(p))
