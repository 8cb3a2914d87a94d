import copy
import dataclasses
import itertools
import random
from pathlib import Path

import pytest

import linrem.verify as verify
from conftest import brute_edge_equation, full_sets, mk_sets, mk_system
from linrem.errors import InputError, SearchBudgetExceeded
from linrem.hrep import build_coefficients, build_host, copies_for_solution
from linrem.linsys import normalize, parse_system
from linrem.solutions import count_system, iter_solutions, min_copy_hitting_set
from linrem.verify import (
    CheckEntry,
    _CopyCheck,
    _exact,
    _iter_per_part,
    check_copies,
    check_edge_counts,
    check_edge_equation,
    check_representation,
    check_simple,
    _template_parts,
    enumerate_copies,
    subset_spans_copy,
)


def make_host(q, rows, rhs, sets):
    ns = normalize(mk_system(q, rows, rhs))
    return build_host(ns, build_coefficients(ns), mk_sets(q, sets))


@pytest.fixture(scope="module")
def triangle_small():
    return make_host(5, [[1, 1, -1]], [0], [[1, 2]] * 3)


@pytest.fixture(scope="module")
def triangle_full():
    return make_host(5, [[1, 1, -1]], [0], [list(range(5))] * 3)


@pytest.fixture(scope="module")
def ap4_full():
    return make_host(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0], [list(range(5))] * 4)


# ---------------------------------------------------------------------------
# Copy counting and enumeration.


def test_copy_counts_of_small_hosts(triangle_small, triangle_full, ap4_full):
    assert len(enumerate_copies(triangle_small)) == 5
    assert len(enumerate_copies(triangle_full)) == 125
    assert len(enumerate_copies(ap4_full)) == 625


def test_host_without_edges_has_no_copies():
    host = make_host(5, [[1, 1, -1]], [0], [[], [], []])
    assert enumerate_copies(host) == []
    assert enumerate_copies(host, mode="naive") == []


class NoLookups(dict):
    """An edge index whose lookups fail the test."""

    def get(self, *args):
        raise AssertionError(f"by_key.get{args} was called")


def test_copy_walks_skip_a_color_without_edges():
    # The block column's set is empty, so the row color has no edge and no
    # copy exists; no route may look up an edge to find that out.
    host = make_host(5, [[1, 1, -1]], [0], [[1, 2], [1, 2], []])
    assert host.sets_n.sets[host.ns.diag_cols[0]] == ()
    host.by_key = NoLookups(host.by_key)
    assert enumerate_copies(host) == []
    assert enumerate_copies(host, mode="naive") == []


def test_enumerate_matches_count(triangle_small, triangle_full):
    per_part = enumerate_copies(triangle_small)
    assert len(per_part) == 5
    assert per_part == sorted(per_part)
    assert len(enumerate_copies(triangle_full)) == 125
    # Random full-rank systems with partial and empty sets. The edge list
    # is in label order, not U-value order, so the walk comes out sorted
    # only because the index sorts each candidate list.
    rng = random.Random(20261018)
    walked = copies_seen = 0
    while walked < 30:
        q = rng.choice([3, 5, 7, 11, 13])
        ell = rng.choice([1, 2])
        p = rng.randint(ell + 2, ell + 3)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        rhs = [rng.randrange(q) for _ in range(ell)]
        try:
            ns = normalize(mk_system(q, rows, rhs))
        except InputError:
            continue
        if q**ns.vertex_count > 30_000:
            continue
        sets = mk_sets(q, [rng.sample(range(q), rng.randint(0, q)) for _ in range(p)])
        host = build_host(ns, build_coefficients(ns), sets)
        copies = enumerate_copies(host)
        assert len(copies) == count_system(ns.base, host.sets_n) * q ** (ns.uniformity - 1)
        assert copies == sorted(copies)
        walked += 1
        copies_seen += len(copies)
    assert copies_seen > 0


def test_enumerate_naive_agrees(triangle_small, triangle_full):
    for host in (triangle_small, triangle_full):
        assert enumerate_copies(host, mode="naive") == enumerate_copies(host)


def test_enumerate_naive_confined_route(ap4_full):
    # Every part of a built host is unavoidable, so the seeded scan only
    # extends each edge by one vertex in each part it misses; the result
    # must still match the per-part walk, one vertex per part.
    naive = enumerate_copies(ap4_full, mode="naive")
    assert naive == enumerate_copies(ap4_full)
    assert all([v // ap4_full.n for v in combo] == [0, 1, 2, 3] for combo in naive)


def test_enumerate_naive_with_an_avoidable_part(triangle_small):
    # Edges of colors 1 and 2 inside U1 and U2 leave part V1 untouched by
    # some edge of every color, so a copy may miss V1 or meet a part twice.
    host = copy.deepcopy(triangle_small)
    n, k = host.n, host.k
    row = host.free
    a, b = next(key for key, (color, _) in host.by_key.items() if color == row)
    for c in range(n, 3 * n):
        pairs = [tuple(sorted(pair)) for pair in ((a, c), (b, c))]
        if c not in (a, b) and not any(pair in host.by_key for pair in pairs):
            break
    for color, pair in enumerate(pairs):
        host.by_key[pair] = (color, 1)
    assert all(
        any(all(v // n != 0 for v in key) for key, (col, _) in host.by_key.items() if col == color)
        for color in range(host.free + host.ell)
    )
    every = [
        combo
        for combo in itertools.combinations(range(n * k), k)
        if subset_spans_copy(host, combo)
    ]
    assert tuple(sorted((a, b, c))) in every
    assert len(every) > len(enumerate_copies(host))
    assert enumerate_copies(host, mode="naive") == every


def test_walk_and_oracle_agree_on_a_missing_edge():
    # Solutions (1, 1, 2) and (1, 2, 3). Without the color-0 edge at x = 0
    # the walk finds no U1 candidate there and skips that x-tuple, and the
    # oracle finds no x = 0 copy either.
    host = make_host(5, [[1, 1, -1]], [0], [[1], [1, 2], [2, 3]])
    assert len(enumerate_copies(host)) == 10
    first = next(key for key, (color, _) in host.by_key.items() if color == 0)
    assert (first, host.by_key[first]) == ((0, 6), (0, 1))
    del host.by_key[first]
    copies = enumerate_copies(host)
    assert len(copies) == 8 and all(combo[0] != 0 for combo in copies)
    assert enumerate_copies(host, mode="naive") == copies
    report = check_representation(host)
    assert [e.name for e in report.entries if not e.passed] == [
        "edge-counts",
        "copy-count",
        "per-solution",
        "edge-equation",
    ]
    assert report.entries[-1].witness == (
        "color 1 vertices (0, 6): membership says edge with label 1, store says None"
    )


def test_enumerate_guard_and_mode(triangle_full):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_copies(triangle_full, mode="naive", guard=10)
    with pytest.raises(ValueError):
        enumerate_copies(triangle_full, mode="exhaustive")


def test_subset_spans_copy(triangle_small):
    # The x=0 copy of the solution (1, 1, 2).
    assert subset_spans_copy(triangle_small, (0, 6, 11))
    # Swap the U2 vertex: the first two colors survive, the third is gone.
    assert not subset_spans_copy(triangle_small, (0, 6, 12))
    # Two vertices from the same part never span.
    assert not subset_spans_copy(triangle_small, (0, 1, 6))
    # A subset of the wrong size is refused, not answered.
    with pytest.raises(ValueError):
        subset_spans_copy(triangle_small, (0, 6))


def test_subset_spans_copy_says_no_with_every_color_present():
    # 5-term all-ones row over F3: r = 4, k = 7. Colors 0-3 each hold the
    # three x vertices and one u vertex; color 4 holds the four u vertices.
    host = make_host(3, [[1] * 5], [0], [range(3)] * 5)
    verts = enumerate_copies(host)[0]
    edges = [combo for combo in itertools.combinations(verts, host.r) if combo in host.by_key]
    assert sorted(host.by_key[e][0] for e in edges) == [0, 1, 2, 3, 4]
    # Swap the colors of the color-0 and color-4 edges: the set still holds
    # an edge of every color, but color 0 now shares no vertex with all of
    # colors 1-3, so no vertex can play x.
    edited = copy.copy(host)
    edited.by_key = dict(host.by_key)
    first, last = edges[0], edges[-1]
    edited.by_key[first], edited.by_key[last] = host.by_key[last], host.by_key[first]

    def placements(h):
        # Bijections of template vertices (one per part) onto verts that
        # carry every color's edge.
        parts = _template_parts(h.ns)
        return sum(
            all(
                h.by_key.get(tuple(sorted(place[t] for t in ps)), (None,))[0] == color
                for color, ps in enumerate(parts)
            )
            for place in itertools.permutations(verts)
        )

    assert subset_spans_copy(host, verts) and placements(host) > 0
    assert not subset_spans_copy(edited, verts)
    assert placements(edited) == 0


# ---------------------------------------------------------------------------
# Individual checks with fault injection.


def test_check_simple(triangle_small):
    assert check_simple(triangle_small).passed
    # The first edge again, relabeled, under its reversed key.
    bad = copy.deepcopy(triangle_small)
    key, (color, label) = next(iter(bad.by_key.items()))
    bad.by_key[key[::-1]] = (color, (label + 1) % 5)
    entry = check_simple(bad)
    assert not entry.passed
    assert entry.witness == f"vertices {key} carry {(color, label)} and {(color, (label + 1) % 5)}"


def test_check_simple_compares_keys_as_sets():
    # x1 + x2 - x3 = 0 over F5 with sets {1, 2}: the set {0, 6} already
    # carries the color-1 edge labeled 1 under (0, 6); (6, 0) is a second
    # key on the same two vertices.
    host = make_host(5, [[1, 1, -1]], [0], [[1, 2]] * 3)
    assert host.by_key[(0, 6)] == (0, 1)
    host.by_key[(6, 0)] = (0, 1)
    report = check_representation(host)
    assert [(e.name, e.witness) for e in report.entries if not e.passed] == [
        ("simple", "vertices (0, 6) carry (0, 1) and (0, 1)"),
        ("edge-counts", "31 edges stored, wants 30"),
    ]


def test_check_simple_with_keys_of_mixed_length(triangle_small):
    # The vertex-set comparison passes a longer ascending key and names
    # one that repeats a stored edge's vertices.
    longer = copy.deepcopy(triangle_small)
    longer.by_key[(0, 6, 11)] = (0, 1)
    assert check_simple(longer).passed
    repeated = copy.deepcopy(triangle_small)
    repeated.by_key[(0, 6, 6)] = (0, 2)
    assert check_simple(repeated).witness == "vertices (0, 6) carry (0, 1) and (0, 2)"


def test_check_simple_by_key_must_index_records():
    # A free-color edge in no solution's copy family, relabeled: no two
    # keys share their vertices, so simple passes; edge-counts sees the
    # label is not admissible, and edge-equation, the one check that reads
    # every free-color edge, the label the shift rule predicts.
    text = (Path(__file__).resolve().parent.parent / "systems" / "triangle.sys").read_text()
    system, _ = parse_system(text)
    ns = normalize(system)
    host = build_host(ns, build_coefficients(ns), mk_sets(5, [[1, 2, 4], [1, 2], [1, 2]]))
    assert check_simple(host).passed
    assert host.by_key[(0, 7)] == (0, 2)
    relabeled = copy.deepcopy(host)
    relabeled.by_key[(0, 7)] = (0, 3)
    report = check_representation(relabeled)
    assert [e.name for e in report.entries if not e.passed] == ["edge-counts", "edge-equation"]
    assert report.entries[1].witness == "color 1 label 3 is not admissible"
    assert report.entries[-1].witness == (
        "color 1 vertices (0, 7): membership says edge with label 2, store says (0, 3)"
    )
    # A key dropped or added is no second edge on a vertex set; the edge
    # count sees it.
    dropped = copy.deepcopy(host)
    del dropped.by_key[(0, 7)]
    extra = copy.deepcopy(host)
    extra.by_key[(0, 1)] = (0, 1)
    for bad, stored in ((dropped, 34), (extra, 36)):
        assert check_simple(bad).passed
        assert check_edge_counts(bad).witness == f"{stored} edges stored, wants 35"


def test_check_edge_counts(triangle_small):
    assert check_edge_counts(triangle_small).passed
    # Move one color-1 edge from label 1 to the other admissible label 2.
    short = copy.deepcopy(triangle_small)
    key, (color, label) = next(iter(short.by_key.items()))
    assert (color, label) == (0, 1)
    short.by_key[key] = (color, 2)
    entry = check_edge_counts(short)
    assert not entry.passed
    assert "color 1 label 1 has 4 edges, wants 5" == entry.witness

    stray = copy.deepcopy(triangle_small)
    key = next(reversed(stray.by_key))
    color, _ = stray.by_key[key]
    stray.by_key[key] = (color, 0)
    entry = check_edge_counts(stray)
    assert not entry.passed
    assert "color 3 label 0 is not admissible" == entry.witness

    # A label outside the set fails the check: the tallies come from by_key.
    relabeled = copy.deepcopy(triangle_small)
    key, (color, _) = next(iter(relabeled.by_key.items()))
    relabeled.by_key[key] = (color, 3)
    entry = check_edge_counts(relabeled)
    assert not entry.passed
    assert "color 1 label 3 is not admissible" == entry.witness

    missing = copy.deepcopy(triangle_small)
    missing.by_key.popitem()
    entry = check_edge_counts(missing)
    assert not entry.passed
    assert "29 edges stored, wants 30" == entry.witness


def test_check_edge_equation(triangle_small, ap4_full):
    assert check_edge_equation(triangle_small).passed
    assert check_edge_equation(ap4_full).passed
    bad = copy.deepcopy(triangle_small)
    # Drop the diagonal edge for s=1, y1=0: vertices (5+0, 10+1).
    del bad.by_key[(5, 11)]
    entry = check_edge_equation(bad)
    assert not entry.passed
    assert "row 1" in entry.witness and "store says None" in entry.witness
    with pytest.raises(SearchBudgetExceeded):
        check_edge_equation(triangle_small, guard=10)


def test_check_edge_equation_ap4_witnesses(ap4_full):
    # Row-color edges whose x-part vertex is not x = 0, so the x offsets of
    # both the support and the pivot enter the predicted label.
    relabeled = copy.deepcopy(ap4_full)
    key = (6, 10, 17)
    assert relabeled.by_key[key] == (2, 2)
    relabeled.by_key[key] = (2, 3)
    assert check_edge_equation(relabeled) == CheckEntry(
        "edge-equation",
        False,
        "row 1 vertices (6, 10, 17): membership says edge with label 2, store says (2, 3)",
    )

    # The brute scan names the same tuple, and so does the report: the
    # host is no longer exact, so its edge-equation entry scans in full.
    dropped = copy.deepcopy(ap4_full)
    key = (3, 14, 18)
    assert dropped.by_key.pop(key) == (3, 0)
    entry = check_edge_equation(dropped)
    assert entry == CheckEntry(
        "edge-equation",
        False,
        "row 2 vertices (3, 14, 18): membership says edge with label 0, store says None",
    )
    assert (entry.passed, entry.witness) == brute_edge_equation(dropped)
    assert not _exact(dropped)
    assert edge_equation_entry(check_representation(dropped)) == entry


def test_check_edge_equation_free_colors():
    # x1 + x2 + x3 = 0 over F7 with sets {0, 1}, {0, 2}, {0, 1, 2, 3} has
    # the one solution (0, 0, 0), so its copies never use the color-2
    # edges labeled 2. Moving one of them within U2 left the other five
    # checks passing; only the free-color rule of edge-equation sees it.
    host = make_host(7, [[1, 1, 1]], [0], [[0, 1], [0, 2], [0, 1, 2, 3]])
    assert (host.free, host.ell) == (2, 1)
    escapes = {}
    moves = relabels = 0
    for key, (color, label) in host.by_key.items():
        part = key[-1] // host.n * host.n
        edits = [(color, label, key[:-1] + (v,)) for v in range(part, part + host.n)]
        edits += [(color, other, key) for other in range(host.n)]
        for edit in edits:
            if edit == (color, label, key) or (edit[2] != key and edit[2] in host.by_key):
                continue
            bad = copy.copy(host)
            bad.by_key = dict(host.by_key)
            del bad.by_key[key]
            bad.by_key[edit[2]] = edit[:2]
            moves += edit[2] != key
            relabels += edit[2] == key
            failed = [e for e in check_representation(bad).entries if not e.passed]
            assert failed
            if [e.name for e in failed] == ["edge-equation"]:
                escapes[(key, edit[2])] = failed[0].witness
    assert (moves, relabels) == (224, 336)
    said = "color 2 vertices {}: membership says no edge with label 1, store says (1, 2)"
    assert escapes == {
        ((0, 16), (0, 15)): said.format((0, 15)),
        ((1, 15), (1, 14)): said.format((1, 14)),
        ((2, 14), (2, 20)): (
            "color 2 vertices (2, 14): membership says edge with label 2, store says None"
        ),
        ((3, 20), (3, 19)): said.format((3, 19)),
        ((4, 19), (4, 18)): said.format((4, 18)),
        ((5, 18), (5, 17)): said.format((5, 17)),
        ((6, 17), (6, 16)): said.format((6, 16)),
    }


def check_both(host, copies=None):
    """check_copies over the per-part copies unless given, with the host's T."""
    if copies is None:
        copies = enumerate_copies(host)
    return check_copies(host, copies, count_system(host.ns.base, host.sets_n))


def drop_edges(host, keep):
    """Copy of host without the edges that fail keep(color, label, key)."""
    bad = copy.copy(host)
    bad.by_key = {key: stored for key, stored in host.by_key.items() if keep(*stored, key)}
    return bad


def test_check_copies_per_solution(triangle_small, ap4_full):
    for host in (triangle_small, ap4_full):
        assert [e.passed for e in check_both(host)] == [True, True]
    # The copies listed off the intact host, one edge gone from the
    # tampered one: the label check reads by_key and misses it.
    bad = copy.deepcopy(triangle_small)
    del bad.by_key[(0, 6)]
    per_solution, structure = check_both(bad, enumerate_copies(triangle_small))
    assert not per_solution.passed and structure.passed
    assert per_solution.witness == "solution (1, 1, 2): color 1 edge missing for x=(0,)"
    # The last copy's color-2 edge: a solution other than the first one.
    last = enumerate_copies(ap4_full)[-1]
    assert last == (4, 9, 14, 19)
    bad = copy.deepcopy(ap4_full)
    del bad.by_key[(4, 9, 19)]
    per_solution, structure = check_both(bad, enumerate_copies(ap4_full))
    assert not per_solution.passed and structure.passed
    assert per_solution.witness == "solution (2, 1, 0, 4): color 2 edge missing for x=(4, 4)"


def test_check_copies_relabeled_edge(triangle_small):
    # The x=0 diagonal edge of (1, 1, 2) moves to the other admissible
    # label; the copy is still found, its label is wrong.
    bad = copy.deepcopy(triangle_small)
    assert bad.by_key[(6, 11)] == (2, 2)
    bad.by_key[(6, 11)] = (2, 1)
    per_solution, structure = check_both(bad)
    assert not per_solution.passed and structure.passed
    assert per_solution.witness == "solution (1, 1, 2): color 3 edge missing for x=(0,)"


def test_check_copies_missing_family(triangle_small):
    one_gone = drop_edges(triangle_small, lambda color, label, key: key != (6, 11))
    entry = check_both(one_gone)[0]
    assert entry.witness == "solution (1, 1, 2) spans 4 copies, wants 5"
    # Every label-2 diagonal edge gone: the solution spans nothing.
    all_gone = drop_edges(triangle_small, lambda color, label, key: (color, label) != (2, 2))
    entry = check_both(all_gone)[0]
    assert not entry.passed
    assert entry.witness == "solution (1, 1, 2) spans 0 copies, wants 5"


def test_check_copies_shared_diagonal(triangle_small):
    # Zero mix columns put every copy of a solution on one diagonal edge.
    coeffs = dataclasses.replace(triangle_small.coeffs, mix=((0,), (0,)))
    flat = build_host(triangle_small.ns, coeffs, triangle_small.sets)
    per_solution, structure = check_both(flat)
    assert structure.passed and not per_solution.passed
    assert per_solution.witness == (
        "solution (1, 1, 2): edge (2, (6, 11)) shared by x=(0,) and x=(1,)"
    )


def test_the_first_decoded_solution_claims_the_row_edges():
    # Zero mix columns and two solutions, (1, 1, 2) and (1, 2, 3), each on
    # one diagonal edge at every x. The first copy to decode names the
    # witness, whether x = 0's batch lists its copies in order or reversed.
    ns = normalize(mk_system(5, [[1, 1, -1]], [0]))
    coeffs = dataclasses.replace(build_coefficients(ns), mix=((0,), (0,)))
    flat = build_host(ns, coeffs, mk_sets(5, [[1], [1, 2], [2, 3]]))
    copies = enumerate_copies(flat)
    assert copies[:2] == [(0, 6, 11), (0, 6, 12)]
    said = "solution {}: edge (2, {}) shared by x=(0,) and x=(1,)"
    assert check_both(flat)[0].witness == said.format((1, 1, 2), (6, 11))
    swapped = copies[1::-1] + copies[2:]
    assert check_both(flat, swapped)[0].witness == said.format((1, 2, 3), (6, 12))


def test_check_copies_structure(triangle_small):
    entry = check_both(triangle_small, [(0, 1, 6)])[1]
    assert not entry.passed
    assert "does not meet every part once" in entry.witness

    # (0, 5, 10) decodes to the all-zero solution, whose labels are banned.
    entry = check_both(triangle_small, [(0, 5, 10)])[1]
    assert not entry.passed
    assert "value 0 in set 1" in entry.witness

    # A stray copy ahead of the real ones fails copy-structure alone: the
    # pass goes on and still tallies the full family.
    per_solution, structure = check_both(
        triangle_small, [(0, 5, 10)] + enumerate_copies(triangle_small)
    )
    assert per_solution.passed
    assert not structure.passed and "value 0 in set 1" in structure.witness

    # U vertices swapped between parts, after their solution is tallied.
    per_solution, structure = check_both(
        triangle_small, enumerate_copies(triangle_small) + [(0, 11, 6)]
    )
    assert per_solution.passed
    assert structure.witness == "copy (0, 11, 6) does not meet every part once"


def shuffled_and_alternating(host, copies):
    """The copies shuffled, and interleaved so the x-prefix changes at every copy."""
    shuffled = copies[:]
    random.Random(11).shuffle(shuffled)
    half = len(copies) // 2
    alternating = [c for pair in zip(copies[:half], copies[half:]) for c in pair]
    alternating += copies[2 * half:]
    assert alternating[0][:host.r - 1] != alternating[1][:host.r - 1]
    return shuffled, alternating


@pytest.mark.parametrize("name", ["triangle_small", "ap4_full"])
def test_check_copies_any_order(name, request):
    # The per-x work is cached on the copy's prefix; an order in which the
    # prefix changes at every copy must give the sorted order's entries.
    host = request.getfixturevalue(name)
    copies = enumerate_copies(host)
    want = check_both(host, copies)
    assert [e.passed for e in want] == [True, True]
    for order in (copies[::-1], *shuffled_and_alternating(host, copies)):
        assert sorted(order) == copies
        assert check_both(host, order) == want


def test_check_copies_relabeled_free_edge(ap4_full):
    # The last copy's color-1 edge moves from label 1 to 2.
    # Every solution with first value 1 uses it at x=(4, 4), so the wrong
    # label must be reported for a solution other than the first, although
    # free-color edges are read once per x-tuple rather than per copy.
    key = (4, 9, 14)
    assert ap4_full.by_key[key] == (0, 1)
    bad = copy.deepcopy(ap4_full)
    bad.by_key[key] = (0, 2)
    copies = enumerate_copies(bad)
    assert copies == enumerate_copies(ap4_full)
    for order in (copies, *shuffled_and_alternating(bad, copies)):
        per_solution, structure = check_both(bad, order)
        assert not per_solution.passed and structure.passed
        assert per_solution.witness == "solution (1, 2, 3, 4): color 1 edge missing for x=(4, 4)"


def test_check_copies_stray_copy_twice(triangle_small):
    # A non-admissible copy is checked again each time it appears, and the
    # first witness stands.
    copies = enumerate_copies(triangle_small)
    shuffled = copies[:]
    random.Random(5).shuffle(shuffled)
    for order in (copies, shuffled):
        per_solution, structure = check_both(
            triangle_small, [(0, 5, 10)] + order[:2] + [(1, 5, 10)] + order[2:] + [(0, 5, 10)]
        )
        assert per_solution.passed
        assert structure.witness == "copy (0, 5, 10) needs value 0 in set 1, not admissible"


@pytest.mark.parametrize(
    "order, per_solution, structure",
    [
        # An inadmissible copy (all U values 0) and a copy with its U
        # vertices swapped between parts, in one x-batch either way round:
        # the first in batch order names the witness.
        (["bad", "swapped", "all"], "", "copy (0, 5, 10) needs value 0 in set 1, not admissible"),
        (["swapped", "bad", "all"], "", "copy (0, 11, 6) does not meet every part once"),
        (["first", "bad", "swapped", "all"], "solution (1, 1, 2) spans 6 copies, wants 5",
         "copy (0, 5, 10) needs value 0 in set 1, not admissible"),
        # A batch repeating a solution, with and without faulty copies.
        (["first", "all"], "solution (1, 1, 2) spans 6 copies, wants 5", ""),
        (["swapped", "first", "bad", "all"], "solution (1, 1, 2) spans 6 copies, wants 5",
         "copy (0, 11, 6) does not meet every part once"),
        # Copies one vertex short or long form batches of their own.
        (["first", "short", "all"], "solution (1, 1, 2) spans 6 copies, wants 5",
         "copy (0, 6) does not meet every part once"),
        (["all", "long"], "", "copy (0, 6, 11, 12) does not meet every part once"),
    ],
)
def test_batch_decode_names_the_first_witness_in_batch_order(
    triangle_small, order, per_solution, structure
):
    # The witnesses check_copies gave when each copy was decoded on its own.
    copies = enumerate_copies(triangle_small)
    assert copies[0] == (0, 6, 11)
    parts = {"bad": [(0, 5, 10)], "swapped": [(0, 11, 6)], "first": copies[:1], "all": copies,
             "short": [(0, 6)], "long": [(0, 6, 11, 12)]}
    listed = [c for name in order for c in parts[name]]
    got = check_both(triangle_small, listed)
    assert (got[0].witness, got[1].witness) == (per_solution, structure)


def test_batch_decode_counts_a_later_solution_repeated_in_its_batch():
    # Two solutions; x = 0's batch lists the second one's copy twice, so it
    # is decoded once and tallied twice, and the first solution stays right.
    host = make_host(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0],
                     [[0, 1, 2], [1, 2, 3], [0, 2, 4], [1, 3]])
    copies = enumerate_copies(host)
    assert copies[:2] == [(0, 5, 10, 16), (0, 5, 10, 17)] and copies[2][:2] != (0, 5)
    per_solution, structure = check_both(host, copies[:2] + copies[1:])
    assert structure.passed
    assert per_solution.witness == "solution (0, 2, 4, 1) spans 26 copies, wants 25"


def test_walk_batches_flatten_to_the_copies():
    # Each batch is one x-tuple's U-tuples with, per row, the stored edge
    # of every tuple; flattened, the batches are the sorted copy list,
    # which the naive scan finds without the walk.
    for host in (
        make_host(5, [[1, 1, -1]], [0], [[1], [1, 2], [2, 3]]),
        make_host(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0], [[0, 2], [1, 3], [1, 2, 3], [4]]),
        make_host(3, [[1, 1, 1, 2]], [1], [range(3)] * 4),
    ):
        flat = []
        for prefix, batch, stored in _iter_per_part(host):
            assert batch and len(stored) == host.ell
            for i, (color, xkey, get_u) in enumerate(host.row_keys(prefix)):
                keys = [xkey + get_u(us) for us in batch]
                assert stored[i] == [host.by_key[key] for key in keys]
                assert {c for c, _ in stored[i]} == {color}
            flat += [prefix + us for us in batch]
        assert flat == enumerate_copies(host) == enumerate_copies(host, mode="naive")
        assert len(flat) == count_system(host.ns.base, host.sets_n) * host.n ** (host.r - 1)


def test_constructive_copies_match_the_walk():
    # copies_for_solution builds each solution's family from the system;
    # the walk finds copies in the host. On random hosts of one or two
    # rows both give the same sorted vertex tuples, the copy check passes
    # on the constructive list, and minimum hitting sets of either list
    # have one size (compared where the exact search is cheap).
    rng = random.Random(23)
    hosts = compared = 0
    while hosts < 100:
        q = rng.choice((3, 5, 7))
        ell = rng.choice((1, 2))
        p = rng.randint(ell + 1, ell + 3)
        try:
            ns = normalize(mk_system(q, [[rng.randrange(q) for _ in range(p)] for _ in range(ell)],
                                     [rng.randrange(q) for _ in range(ell)]))
        except InputError:
            continue
        sets = mk_sets(q, [rng.sample(range(q), rng.randint(1, q)) for _ in range(p)])
        solutions = count_system(ns.base, ns.permute_family(sets))
        if solutions * q ** (ns.uniformity - 1) > 600:
            continue
        host = build_host(ns, build_coefficients(ns), sets)
        walked = enumerate_copies(host)
        built = [c for sol in iter_solutions(ns, sets) for c in copies_for_solution(host, sol)]
        assert sorted(built) == walked, (q, ns.base.rows, sets.sets)
        assert all(entry.passed for entry in check_copies(host, built, solutions))
        if len(walked) <= 60:
            assert len(min_copy_hitting_set(host, walked)) == len(min_copy_hitting_set(host, built))
            compared += 1
        hosts += 1
    assert compared >= 50


def test_full_batches_credit_only_known_solutions():
    # Solutions (1, 1, 2) and (1, 2, 3). Without the color-2 edges that
    # (1, 2, 3) uses at x = 0 and 1, the walk's batches at x = 0 and 1
    # hold (1, 1, 2) alone, and the one at x = 1 is a full batch, credited
    # before (1, 2, 3) is first decoded at x = 2. That solution has three
    # copies, and a tally that gave it the earlier full batch would say 4.
    host = make_host(5, [[1, 1, -1]], [0], [[1], [1, 2], [2, 3]])
    late = {(0, 12), (1, 11)}
    assert all(host.by_key[key] == (1, 2) for key in late)
    bad = drop_edges(host, lambda color, label, key: key not in late)
    copies = enumerate_copies(bad)
    assert [c[0] for c in copies] == [0, 1, 2, 2, 3, 3, 4, 4]
    witness = "solution (1, 2, 3) spans 3 copies, wants 5"
    report = check_representation(bad)
    assert [e.witness for e in report.entries if e.name == "per-solution"] == [witness]
    assert check_both(bad)[0].witness == witness


def walked_and_listed(host):
    """The per-solution and copy-structure witnesses of check_representation,
    after checking that they and its copy count are check_copies' over the
    listed copies."""
    report = check_representation(host)
    entries = {e.name: e for e in report.entries}
    copies = enumerate_copies(host)
    assert report.copies == len(copies)
    assert [entries["per-solution"], entries["copy-structure"]] == list(check_both(host, copies))
    return entries["per-solution"].witness, entries["copy-structure"].witness


def test_reference_is_dropped_when_a_solution_is_first_decoded_later():
    # Solutions (1, 1, 2) and (1, 2, 3); the color-2 edges labeled 2 stay
    # at x = 2 alone, so (1, 2, 3) has one copy. x = 3 and 4 match x = 0
    # again; crediting them as x = 0 would give (1, 2, 3) 3 copies.
    host = make_host(5, [[1, 1, -1]], [0], [[1], [1, 2], [2, 3]])
    bad = drop_edges(host, lambda color, label, key: (color, label) != (1, 2) or key[0] == 2)
    assert walked_and_listed(bad) == ("solution (1, 2, 3) spans 1 copies, wants 5", "")


@pytest.mark.parametrize(
    "key, stored, witness",
    [
        # x = 0's batch sets a witness, so no x-tuple is credited.
        ((0, 5, 11), (0, 2), "solution (1, 0, 4, 3): color 1 edge missing for x=(0, 0)"),
        # Five solutions have no x = 0 copy; the walk decodes them at x = (0, 1).
        ((0, 5, 11), None, "solution (1, 0, 4, 3) spans 24 copies, wants 25"),
        # The last x-tuple.
        ((4, 9, 19), None, "solution (0, 1, 2, 3) spans 24 copies, wants 25"),
        ((4, 9, 14), (0, 2), "solution (1, 2, 3, 4): color 1 edge missing for x=(4, 4)"),
    ],
)
def test_reference_faults_at_the_first_and_last_x(ap4_full, key, stored, witness):
    bad = copy.deepcopy(ap4_full)
    if stored is None:
        del bad.by_key[key]
    else:
        bad.by_key[key] = stored
    assert walked_and_listed(bad) == (witness, "")


def test_reference_compares_the_candidate_lists():
    # x4 has a zero column, so no row reads U3 (vertices 15-19). A longer
    # color-3 key at x = 2 ending in U1 vertex 7 makes 7 a U3 candidate
    # there. No free-color or row probe reads that key; only the candidate
    # list shows it, and the walk at x = 2 finds copies with 7 in U3's place.
    host = make_host(5, [[1, 1, -1, 0]], [0], [[1, 2], [1, 2], [1, 2, 3], [0, 4]])
    assert host.coeffs.mix[2] == (0,) and host.by_key[(2, 15)] == (2, 0)
    host.by_key[(2, 15, 7)] = (2, 0)
    assert walked_and_listed(host) == ("", "copy (2, 8, 10, 7) does not meet every part once")


def test_reference_needs_one_solution_per_copy(triangle_small):
    # A longer key repeating each color-1 edge's U1 vertex makes that vertex
    # a U1 candidate twice at every x, so (1, 1, 2) has two copies per
    # x-tuple. x = 0 decodes one solution from two copies, so no x-tuple is
    # credited; crediting would give each later x-tuple one copy.
    bad = copy.deepcopy(triangle_small)
    for key, stored in triangle_small.by_key.items():
        if stored[0] == 0:
            bad.by_key[key + key[-1:]] = stored
    assert walked_and_listed(bad) == ("solution (1, 1, 2) spans 10 copies, wants 5", "")


def fed_prefixes(monkeypatch):
    """The prefixes _CopyCheck.feed is called with from now on."""
    fed = []
    feed = _CopyCheck.feed

    def counted(self, prefix, batch, stored):
        fed.append(prefix)
        feed(self, prefix, batch, stored)

    monkeypatch.setattr(_CopyCheck, "feed", counted)
    return fed


def test_reference_walks_only_x_zero(ap4_full, monkeypatch):
    fed = fed_prefixes(monkeypatch)
    report = check_representation(ap4_full)
    assert report.passed and report.copies == 625
    assert fed == [(0, 5)]


def tampered_hosts(seed, count):
    """Seeded one- and two-row hosts over F3, F5 and F7, each untouched or
    with one edge dropped, relabeled, moved within its part or planted again
    under its reversed key."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice([3, 5, 7])
        ell = rng.choice([1, 2])
        p = rng.randint(ell + 2, ell + 3)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        try:
            ns = normalize(mk_system(q, rows, [rng.randrange(q) for _ in range(ell)]))
        except InputError:
            continue
        if q**ns.vertex_count > 20_000:
            continue
        sets = [rng.sample(range(q), rng.randint(1, q)) for _ in range(p)]
        host = build_host(ns, build_coefficients(ns), mk_sets(q, sets))
        fault = rng.choice(["none", "drop", "relabel", "move", "duplicate"])
        keys = list(host.by_key)
        i = rng.randrange(len(keys)) if keys else None
        if i is not None and fault != "none":
            key = keys[i]
            color, label = host.by_key[key]
            if fault == "drop":
                del host.by_key[key]
            elif fault == "relabel":
                host.by_key[key] = (color, (label + 1) % q)
            elif fault == "move":
                moved = key[:-1] + (key[-1] // q * q + (key[-1] + 1) % q,)
                if moved not in host.by_key:
                    del host.by_key[key]
                    host.by_key[moved] = (color, label)
            else:
                host.by_key[key[::-1]] = (color, label)
        out.append((fault, host))
    return out


# (host, fault, copy-count, per-solution, copy-structure witnesses) of each
# host below that fails one of those checks, as the per-copy check gave them
# before the walk fed it whole batches.
COPY_WITNESSES = [
    (9, "drop", "5 copies, wants 6", "solution (0, 1, 2) spans 2 copies, wants 3", ""),
    (13, "drop", "135 copies, wants 140", "solution (0, 6, 5) spans 6 copies, wants 7", ""),
    (15, "drop", "102 copies, wants 108", "solution (0, 0, 1, 1) spans 8 copies, wants 9", ""),
    (19, "relabel", "", "solution (6, 2, 0, 1): color 2 edge missing for x=(5, 6)", ""),
    (22, "relabel", "", "solution (1, 1, 1): color 1 edge missing for x=(0,)", ""),
    (26, "relabel", "", "solution (1, 3, 0, 3): color 3 edge missing for x=(4,)", ""),
    (27, "relabel", "", "solution (2, 2, 4, 5): color 4 edge missing for x=(4, 2)", ""),
    (29, "drop", "8 copies, wants 9", "solution (2, 1, 1, 2) spans 8 copies, wants 9", ""),
    (34, "relabel", "", "solution (2, 4, 0): color 1 edge missing for x=(1,)", ""),
    (40, "relabel", "", "solution (4, 3, 4, 2): color 4 edge missing for x=(2, 2)", ""),
    (44, "move", "", "solution (0, 0, 0, 0) spans 2 copies, wants 3",
     "copy (0, 3, 6, 10) needs value 1 in set 3, not admissible"),
    (45, "move", "", "solution (1, 3, 1) spans 4 copies, wants 5",
     "copy (3, 5, 14) needs value 2 in set 1, not admissible"),
    (48, "move", "", "solution (0, 3, 2, 3) spans 48 copies, wants 49",
     "copy (3, 10, 17, 21, 32) needs value 4 in set 2, not admissible"),
    (53, "relabel", "", "solution (5, 1, 2, 5, 5): color 4 edge missing for x=(0, 6)", ""),
    (54, "drop", "24 copies, wants 27", "solution (0, 0, 0, 0, 2) spans 8 copies, wants 9", ""),
    (57, "relabel", "", "solution (2, 2, 1): color 1 edge missing for x=(4,)", ""),
    (59, "drop", "374 copies, wants 375",
     "solution (0, 2, 2, 2, 3) spans 124 copies, wants 125", ""),
]


def test_streamed_copy_check_matches_the_listed_one():
    # check_representation feeds the walk's batches to the copy check;
    # check_copies regroups a copy list. Both must give the witnesses the
    # per-copy check gave. A shuffled list may name another first fault,
    # but it fails the same checks.
    failing = []
    duplicates = 0
    for idx, (fault, host) in enumerate(tampered_hosts(21, 60)):
        report = check_representation(host)
        entries = {e.name: e for e in report.entries}
        copies = enumerate_copies(host)
        assert report.copies == len(copies)
        listed = check_both(host, copies)
        assert [entries["per-solution"], entries["copy-structure"]] == list(listed)
        shuffled = copies[:]
        random.Random(idx).shuffle(shuffled)
        assert [e.passed for e in check_both(host, shuffled)] == [e.passed for e in listed]
        names = ("copy-count", "per-solution", "copy-structure")
        witnesses = tuple(entries[name].witness for name in names)
        if fault == "none":
            assert report.passed
        if fault == "duplicate":
            # The walk and edge-equation probe ascending keys only, so
            # only simple and edge-counts see the reversed one.
            failed = [e.name for e in report.entries if not e.passed]
            assert failed == ["simple", "edge-counts"]
            duplicates += 1
        if any(witnesses):
            failing.append((idx, fault, *witnesses))
    assert failing == COPY_WITNESSES
    assert duplicates == 13


# ---------------------------------------------------------------------------
# Exact hosts and translation invariance.


def translated(host, key, xs):
    """key moved to x-tuple xs: x part t by xs[t], U_j by mix_j . xs, as a copy is."""
    n = host.n
    steps = [*xs, *(sum(c * x for c, x in zip(a, xs)) for a in host.coeffs.mix)]
    return tuple(v // n * n + (v % n + steps[v // n]) % n for v in key)


def drawn_hosts(seed, count):
    """Seeded honest one- and two-row hosts over F3, F5 and F7 with random
    right-hand sides and random nonempty sets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice([3, 5, 7])
        ell = rng.choice([1, 2])
        p = rng.randint(ell + 2, ell + 3)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        try:
            ns = normalize(mk_system(q, rows, [rng.randrange(q) for _ in range(ell)]))
        except InputError:
            continue
        if q**ns.vertex_count > 20_000:
            continue
        sets = [rng.sample(range(q), rng.randint(1, q)) for _ in range(p)]
        out.append(build_host(ns, build_coefficients(ns), mk_sets(q, sets)))
    return out


def orbit_faulted_hosts(seed, count):
    """drawn_hosts, each with the whole translation orbit of one edge dropped,
    relabeled or recolored."""
    rng = random.Random(seed)
    out = []
    for host in drawn_hosts(seed, count):
        kind = rng.choice(FAULTS)
        fault_orbit(host, rng.choice(list(host.by_key)), kind)
        out.append((kind, host))
    return out


FAULTS = ["drop", "relabel", "recolor"]


def fault(host, key, kind):
    """Drop, relabel or recolor the edge on key, in place."""
    color, label = host.by_key[key]
    if kind == "drop":
        del host.by_key[key]
    elif kind == "relabel":
        host.by_key[key] = (color, (label + 1) % host.n)
    else:
        host.by_key[key] = ((color + 1) % (host.free + host.ell), label)


def fault_orbit(host, key, kind):
    """fault on every edge of key's translation orbit, in place."""
    stored = host.by_key[key]
    for xs in itertools.product(range(host.n), repeat=host.r - 1):
        moved = translated(host, key, xs)
        assert host.by_key[moved] == stored
        fault(host, moved, kind)


def test_batch_decoded_solutions_solve_every_row():
    # _decode recovers each row's block column from the x = 0 U vertices,
    # a column at a time over one batch, and records admissible tuples only.
    # Fed every U-tuple at x = 0 as one batch, the tuples it keeps solve
    # every row of the normalized system, by plain % arithmetic, and are
    # exactly the admissible solutions.
    total = 0
    for host in drawn_hosts(27, 30):
        n = host.n
        base = host.ns.base
        zero = tuple(t * n for t in range(host.r - 1))
        check = _CopyCheck(host)
        parts = [range(p * n, (p + 1) * n) for p in range(host.r - 1, host.r - 1 + host.free)]
        batch = list(itertools.product(*parts))
        check._decode(zero, batch, batch)
        decoded = {us: known[0] for us, known in check.solved.items()}
        for us, sol in decoded.items():
            assert [v % n for v in us] == list(sol[:host.free])
            for row, rhs in zip(base.rows, base.rhs):
                assert sum(a * v for a, v in zip(row, sol)) % n == rhs % n, (base.rows, sol)
        assert len(decoded) == count_system(base, host.sets_n)
        assert bool(check.structure) == (len(decoded) < len(batch))
        total += len(decoded)
    assert total


def test_invariant_holds_on_honest_hosts(triangle_small, ap4_full):
    # An honest host is exact, and an exact store maps into itself under
    # each unit x-translation: the fact the walk's credit rests on.
    hosts = [triangle_small, ap4_full, *drawn_hosts(3, 40)]
    assert all(map(_exact, hosts))
    for host in hosts:
        for t in range(host.r - 1):
            unit = [int(p == t) for p in range(host.r - 1)]
            moved = {translated(host, key, unit): stored for key, stored in host.by_key.items()}
            assert moved == host.by_key
    assert any(any(host.ns.base.rhs) for host in hosts)
    assert any(host.sets_n.total_size() < host.n * (host.free + host.ell) for host in hosts)


@pytest.mark.parametrize("name", ["triangle_small", "ap4_full"])
def test_invariant_fails_after_any_one_edge_fault(name, request):
    host = request.getfixturevalue(name)
    bad = copy.deepcopy(host)
    colors = host.free + host.ell
    for key, (color, label) in host.by_key.items():
        del bad.by_key[key]
        assert not _exact(bad), key
        for stored in ((color, (label + 1) % host.n), ((color + 1) % colors, label)):
            bad.by_key[key] = stored
            assert not _exact(bad), (key, stored)
        bad.by_key[key] = (color, label)
    assert _exact(bad)


def test_invariant_checks_every_unit_translation(ap4_full):
    # Dropping one edge's orbit under the translations of one x part alone
    # keeps the host invariant under that part's unit translation only. It
    # is not exact, so the walk credits nothing.
    key = (0, 5, 10)
    for t in range(2):
        bad = copy.deepcopy(ap4_full)
        for x in range(5):
            del bad.by_key[translated(bad, key, [x * (s == t) for s in range(2)])]
        assert not _exact(bad), t
        assert walked_and_listed(bad)[0] == "solution (0, 0, 0, 0) spans 20 copies, wants 25"


def test_a_host_that_is_not_invariant_is_walked_at_every_x(ap4_full, monkeypatch):
    # x = 0's batch decodes one solution per copy, but the dropped edge at
    # x = (4, 4) leaves the host not exact, so all 25 x-tuples are walked.
    bad = copy.deepcopy(ap4_full)
    del bad.by_key[(4, 9, 19)]
    assert not _exact(bad)
    fed = fed_prefixes(monkeypatch)
    report = check_representation(bad)
    assert fed == [(x1, 5 + x2) for x1 in range(5) for x2 in range(5)]
    assert report.copies == 620
    assert [e.witness for e in report.entries if e.name == "per-solution"] == [
        "solution (0, 1, 2, 3) spans 24 copies, wants 25"
    ]


def test_orbit_faults_agree_with_the_listed_check(monkeypatch):
    # A fault on a whole translation orbit leaves the host invariant but
    # not exact, so no x-tuple is credited. The copy count and entries
    # must be check_copies' over the listed copies, and every host must
    # fail.
    fed = fed_prefixes(monkeypatch)
    credited = 0
    for fault, host in orbit_faulted_hosts(11, 60):
        assert not _exact(host)
        fed.clear()
        report = check_representation(host)
        credited += fed == [tuple(range(0, (host.r - 1) * host.n, host.n))]
        assert not report.passed, fault
        entries = {e.name: e for e in report.entries}
        copies = enumerate_copies(host)
        assert report.copies == len(copies)
        assert [entries["per-solution"], entries["copy-structure"]] == list(check_both(host, copies))
    assert credited == 0


def edge_equation_entry(report):
    return next(e for e in report.entries if e.name == "edge-equation")


def test_edge_equation_matches_the_brute_force_scan():
    # A direct call scans in full. Under check_representation honest hosts
    # are exact and pass unscanned; a one-edge or a whole-orbit fault
    # leaves the host not exact, so the full scan runs.
    rng = random.Random(6)
    one_edge = drawn_hosts(6, 30)
    for host in one_edge:
        key = rng.choice(list(host.by_key))
        fault(host, key, rng.choice(FAULTS))
    orbit = [host for _, host in orbit_faulted_hosts(7, 30)]
    assert not any(map(_exact, one_edge + orbit))
    for kind, hosts in (("honest", drawn_hosts(5, 30)), ("one-edge", one_edge), ("orbit", orbit)):
        failed = 0
        for host in hosts:
            brute = brute_edge_equation(host)
            entry = check_edge_equation(host)
            assert (entry.passed, entry.witness) == brute, kind
            entry = edge_equation_entry(check_representation(host))
            assert (entry.passed, entry.witness) == brute, kind
            failed += not entry.passed
        assert failed == (0 if kind == "honest" else 30), kind


@pytest.mark.parametrize(
    "sets", [[[0, 1, 2]] * 6, [[0, 1], [1, 2], [0, 2], [0, 1, 2], [1], [0, 2]]]
)
def test_edge_equation_matches_the_brute_force_scan_on_wide_heads(sets):
    # r = 5 over F3, and each row has two off-block x positions and two
    # support columns, so each head's offset is a running sum over four
    # positions. One-edge faults go to direct calls, orbit faults to
    # check_representation, whose scan is the direct call's.
    host = make_host(3, [[1, 2, 1, 2, 1, 2], [0, 1, 0, 2, 1, 1]], [1, 2], sets)
    assert (host.r, host.ns.support, host.coeffs.outside) == (5, ((0, 2), (0, 1)), ((2, 3), (0, 1)))
    assert check_edge_equation(host) == CheckEntry("edge-equation", True)
    assert check_representation(host).passed
    rng = random.Random(30)
    for _ in range(45):
        bad = copy.deepcopy(host)
        fault(bad, rng.choice(list(bad.by_key)), rng.choice(FAULTS))
        entry = check_edge_equation(bad)
        assert not entry.passed and (entry.passed, entry.witness) == brute_edge_equation(bad)
        bad = copy.deepcopy(host)
        fault_orbit(bad, rng.choice(list(bad.by_key)), rng.choice(FAULTS))
        assert not _exact(bad)
        entry = edge_equation_entry(check_representation(bad))
        assert not entry.passed and (entry.passed, entry.witness) == brute_edge_equation(bad)


def test_edge_equation_names_the_first_failing_tuple(ap4_full):
    # Rows are scanned before free colors and a head's closing vertices in
    # ascending order. So with a free-color edge and the last row-2 edge
    # dropped, the row is named, and of two faults under row 1's first
    # head (5, 10) the lower closing vertex is. The same faults on whole
    # orbits are met first at head value 0. Either host is not exact, so
    # check_representation names the direct call's witness.
    said = "row {} vertices {}: membership says edge with label {}, store says {}"
    cases = [
        ([((0, 5, 10), "drop"), ((4, 14, 19), "drop")],
         said.format(2, (4, 14, 19), 1, None), said.format(2, (0, 10, 17), 1, None)),
        ([((5, 10, 18), "relabel"), ((5, 10, 16), "drop")],
         said.format(1, (5, 10, 16), 2, None), said.format(1, (5, 10, 16), 2, None)),
        ([((5, 10, 16), "relabel"), ((5, 10, 18), "drop")],
         said.format(1, (5, 10, 16), 2, (2, 3)), said.format(1, (5, 10, 16), 2, (2, 3))),
    ]
    for faults, witness, sliced in cases:
        bad, orbit = copy.deepcopy(ap4_full), copy.deepcopy(ap4_full)
        for key, kind in faults:
            fault(bad, key, kind)
            fault_orbit(orbit, key, kind)
        entry = check_edge_equation(bad)
        assert entry.witness == witness
        assert edge_equation_entry(check_representation(bad)) == entry
        assert not _exact(orbit)
        assert edge_equation_entry(check_representation(orbit)).witness == sliced
        assert check_edge_equation(orbit).witness == sliced


def test_edge_equation_scans_a_host_with_other_tables_in_full(triangle_small):
    # Zero mix columns fix every row key under each x-translation, so the
    # flat host stays invariant with one row edge dropped. It is not exact,
    # so the report scans in full, as a direct call does, and finds it.
    coeffs = dataclasses.replace(triangle_small.coeffs, mix=((0,), (0,)))
    flat = build_host(triangle_small.ns, coeffs, triangle_small.sets)
    assert flat.by_key.pop((6, 11)) == (2, 2)
    assert not _exact(flat)
    entry = check_edge_equation(flat)
    assert entry.witness == (
        "row 1 vertices (6, 11): membership says edge with label 2, store says None"
    )
    assert edge_equation_entry(check_representation(flat)) == entry


def test_edge_equation_leaves_invariance_to_the_report_whatever_the_tables(
    triangle_small, monkeypatch
):
    # edge-equation never decides exactness itself: a direct call scans in
    # full, whatever the tables, without one call of _exact, and
    # check_representation's call is the only one it makes. Zero mix
    # columns shift nothing, so they cancel and the flat host is exact
    # too: neither report scans, and both walks read x = 0 alone. The flat
    # host's credit claims its first solution's row edge at every x, which
    # fails per-solution as the full walk does.
    coeffs = dataclasses.replace(triangle_small.coeffs, mix=((0,), (0,)))
    flat = build_host(triangle_small.ns, coeffs, triangle_small.sets)
    assert _exact(flat)
    calls, scans = [], []
    exact, scan = verify._exact, verify.check_edge_equation
    monkeypatch.setattr(verify, "_exact", lambda host: calls.append(host) or exact(host))
    monkeypatch.setattr(
        verify, "check_edge_equation", lambda host, guard: scans.append(host) or scan(host, guard)
    )
    assert check_edge_equation(flat).passed
    assert check_edge_equation(triangle_small).passed
    assert calls == []
    fed = fed_prefixes(monkeypatch)
    assert check_representation(triangle_small).passed
    assert (calls, scans, fed) == ([triangle_small], [], [(0,)])
    fed.clear()
    assert [e.name for e in check_representation(flat).entries if not e.passed] == ["per-solution"]
    assert (calls[1:], scans, fed) == ([flat], [], [(0,)])


class CountedLookups(dict):
    """An edge index that counts its get calls while on is set."""

    on = False
    reads = 0

    def get(self, *args):
        self.reads += self.on
        return super().get(*args)


def with_a_longer_key(host):
    """A copy of host with one extra key one vertex longer: no longer
    exact, though no probe of the walk or of edge-equation reads it."""
    longer = copy.deepcopy(host)
    longer.by_key[(0, 5, 10, 15)] = (2, 0)
    assert not _exact(longer)
    return longer


def counted_copy(host):
    """A shallow copy of host whose by_key counts its reads."""
    counted = copy.copy(host)
    counted.by_key = CountedLookups(host.by_key)
    return counted


def reads_per_call(monkeypatch, name):
    """The by_key reads of each call of verify.<name> from now on, one entry
    per call; host.by_key must be a CountedLookups."""
    reads = []
    inner = getattr(verify, name)

    def counting(host, *args):
        before, host.by_key.on = host.by_key.reads, True
        try:
            return inner(host, *args)
        finally:
            host.by_key.on = False
            reads.append(host.by_key.reads - before)

    monkeypatch.setattr(verify, name, counting)
    return reads


def test_edge_equation_reads_one_tuple_per_orbit(ap4_full, monkeypatch):
    # A direct call reads all (free + ell) * n^r = 500 candidate tuples
    # and never calls _exact. A report calls _exact once, which reads each
    # stored edge once, and its edge-equation reads no tuple at all on the
    # exact ap4_full, and all 500 on the copy with a longer key, which
    # _exact refuses by its edge count unread: there the check passes and
    # the full scan runs to its end.
    exact = reads_per_call(monkeypatch, "_exact")
    scans = reads_per_call(monkeypatch, "check_edge_equation")
    cases = [(ap4_full, [500], []), (with_a_longer_key(ap4_full), [0], [500])]
    for host, exact_reads, scan_reads in cases:
        counted = counted_copy(host)
        counted.by_key.on = True
        assert check_edge_equation(counted).passed
        counted.by_key.on = False
        assert counted.by_key.reads == (host.free + host.ell) * host.n**host.r
        assert exact == []
        report = check_representation(counted)
        assert [e.name for e in report.entries if not e.passed] == (
            ["edge-counts"] if scan_reads else []
        )
        assert (exact, scans) == (exact_reads, scan_reads)
        exact.clear()


def test_only_an_invariant_host_is_walked_at_x_zero_alone(ap4_full, monkeypatch):
    fed = fed_prefixes(monkeypatch)
    assert check_representation(ap4_full).copies == 625
    assert fed == [(0, 5)]
    fed.clear()
    assert check_representation(with_a_longer_key(ap4_full)).copies == 625
    assert fed == [(x1, 5 + x2) for x1 in range(5) for x2 in range(5)]


def part_index_calls(monkeypatch):
    """The hosts verify._part_index is called with from now on."""
    indexed = []
    part_index = verify._part_index
    monkeypatch.setattr(verify, "_part_index", lambda host: indexed.append(host) or part_index(host))
    return indexed


def test_an_invariant_host_is_read_at_x_zero_alone(ap4_full, monkeypatch):
    # The walk reads ap4_full at x = 0 alone, and builds no index of every
    # edge: each row's probe of every x = 0 U-tuple (2 * 25), whose U
    # vertices are the admissible labels, and the copy check's read of
    # each U vertex's free-color edge (10). Every later x-tuple is
    # credited, unread. Only the walk's reads count.
    indexed = part_index_calls(monkeypatch)
    walks = reads_per_call(monkeypatch, "_walk_check")
    fed = fed_prefixes(monkeypatch)
    report = check_representation(counted_copy(ap4_full))
    assert report.passed and report.copies == 625
    assert (walks, indexed, fed) == ([2 * 25 + 10], [], [(0, 5)])
    # With x = 0's color-1 edges relabeled along their whole orbits, the
    # host stays invariant but is not exact: every edge is indexed, once,
    # and every x-tuple is walked.
    bad = copy.deepcopy(ap4_full)
    for u in range(10, 15):
        fault_orbit(bad, (0, 5, u), "relabel")
    assert not _exact(bad)
    bad.by_key = CountedLookups(bad.by_key)
    fed.clear()
    report = check_representation(bad)
    assert indexed == [bad] and fed == [(x1, 5 + x2) for x1 in range(5) for x2 in range(5)]
    assert walks[1] == 25 * (2 * 25 + 10)
    assert [e.witness for e in report.entries if e.name == "per-solution"] == [
        "solution (0, 0, 0, 0): color 1 edge missing for x=(0, 0)"
    ]


def test_probed_x_zero_keeps_the_listed_witnesses(triangle_small):
    # Three invariant hosts. In the first two a color-3 orbit's x = 0 key
    # ends outside U3: moved into U1, or at vertex 20 = n * k, which every
    # translation fixes. No row reads U3, so those vertices reach copies
    # and name the copy-structure witness; neither host is exact, so the
    # walk indexes every edge and finds them. The third has zero mix
    # columns, which cancel: it is exact, and the credit claims the first
    # solution's row edge at every x, as the walk would meet it.
    host = make_host(5, [[1, 1, -1, 0]], [0], [[1, 2], [1, 2], [1, 2, 3], [0, 4]])
    assert host.coeffs.mix[2] == (0,) and host.k * host.n == 20
    moved, beyond = copy.deepcopy(host), copy.deepcopy(host)
    for x in range(5):
        assert moved.by_key.pop((x, 15)) == (2, 0)
        moved.by_key[translated(host, (0, 5), [x])] = (2, 0)
        beyond.by_key[(x, 20)] = (2, 0)
    coeffs = dataclasses.replace(triangle_small.coeffs, mix=((0,), (0,)))
    flat = build_host(triangle_small.ns, coeffs, triangle_small.sets)
    cases = [
        (moved, "solution (1, 1, 0, 2) spans 0 copies, wants 5",
         "copy (0, 6, 11, 5) does not meet every part once"),
        (beyond, "", "copy (0, 6, 11, 20) does not meet every part once"),
        (flat, "solution (1, 1, 2): edge (2, (6, 11)) shared by x=(0,) and x=(1,)", ""),
    ]
    assert [_exact(bad) for bad, _, _ in cases] == [False, False, True]
    for bad, per_solution, structure in cases:
        assert walked_and_listed(bad) == (per_solution, structure)


@pytest.mark.parametrize("mode", ["per-part", "naive"])
def test_a_report_builds_key_columns_once_and_probes_invariance_once(ap4_full, mode, monkeypatch):
    # _exact is the one answer about the store: a report calls it once, in
    # either mode, and the store checks and the walk share its answer, so
    # only the copy with a longer key, which is not exact, gets check_simple
    # and the edge-equation scan.
    simple, exact, scans = [], [], []
    check, decide, scan = verify.check_simple, verify._exact, verify.check_edge_equation
    monkeypatch.setattr(verify, "check_simple", lambda host: simple.append(host) or check(host))
    monkeypatch.setattr(verify, "_exact", lambda host: exact.append(host) or decide(host))
    monkeypatch.setattr(
        verify, "check_edge_equation", lambda host, guard: scans.append(host) or scan(host, guard)
    )
    longer = with_a_longer_key(ap4_full)
    for host, failed in ((ap4_full, []), (longer, ["edge-counts"])):
        report = check_representation(host, mode=mode)
        assert [e.name for e in report.entries if not e.passed] == failed
        assert exact == [host]
        assert simple == scans == ([host] if failed else [])
        simple.clear(), exact.clear(), scans.clear()


def test_an_exact_host_walks_nothing_after_an_empty_x_zero_batch(monkeypatch):
    # x1 + x2 + x3 + x4 = 0 over F7 with sets {1}, {1}, {1}, {1, 2} has no
    # solution, though every color has edges. On its own tables each later
    # batch is x = 0's translated, so after x = 0's empty batch nothing is
    # walked: no index, no feed. The report is the one the full walk gives.
    host = make_host(7, [[1, 1, 1, 1]], [0], [[1], [1], [1], [1, 2]])
    assert (len(host.by_key), count_system(host.ns.base, host.sets_n)) == (245, 0)
    assert {color for color, _ in host.by_key.values()} == set(range(host.free + host.ell))
    indexed = part_index_calls(monkeypatch)
    fed = fed_prefixes(monkeypatch)
    report = check_representation(host)
    assert (indexed, fed) == ([], [])
    monkeypatch.setattr(verify, "_exact", lambda host: False)
    walked = check_representation(host)
    assert indexed == [host] and fed == []
    assert (report.render(), report.skipped) == (walked.render(), walked.skipped)


def test_a_guard_skipped_edge_equation_keeps_the_credit(ap4_full, monkeypatch):
    # _exact is unguarded: a guard that leaves edge-equation out leaves the
    # walk's credit alone.
    fed = fed_prefixes(monkeypatch)
    report = check_representation(ap4_full, guard=10)
    assert report.passed and report.copies == 625
    assert report.skipped == [("edge-equation", 500)]
    assert fed == [(0, 5)]


def random_mix_hosts():
    """ap4 over F5, rhs (1, 2), full sets, on 40 seeded random mix tables,
    each with closing tables recomputed from the mix as build_coefficients
    does, and whether each row's U-column shifts cancel on its block x
    positions, computed here by plain % arithmetic."""
    ns = normalize(mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [1, 2]))
    sets = mk_sets(5, [range(5)] * 4)
    own = build_coefficients(ns)
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        mix = [[rng.randrange(5) for _ in row] for row in own.mix]
        rows = list(zip(ns.support, ns.pivots, ns.base.rows))

        def drift(t, support, m, row):
            return (mix[m][t] + sum(mix[j][t] * row[j] for j in support)) % 5

        closing = tuple(
            tuple(drift(t, *plan) for t in outs) for outs, plan in zip(own.outside, rows)
        )
        cancels = not any(drift(t, *plan) for block, plan in zip(ns.blocks, rows) for t in block)
        coeffs = dataclasses.replace(own, mix=tuple(map(tuple, mix)), closing=closing)
        out.append((build_host(ns, coeffs, sets), cancels))
    return out


def test_the_credit_needs_build_coefficients_own_tables():
    # Random mix columns give a store that holds every predicted edge, but
    # is translation invariant only when each row's U-column shifts cancel
    # on its block x positions. _exact holds exactly then, so a walk never
    # credits a store that does not cancel; every report must give
    # check_copies' count and entries over the listed copies.
    hosts = random_mix_hosts()
    assert [_exact(host) for host, _ in hosts] == [cancels for _, cancels in hosts]
    assert {cancels for _, cancels in hosts} == {True, False}
    for host, _ in hosts:
        walked_and_listed(host)


def test_the_credit_is_checked_on_the_tables_not_their_origin(
    triangle_small, ap4_full, monkeypatch
):
    # A dataclasses.replace copy of build_coefficients' tables, and zero mix
    # columns, cancel like the host's own tables: both hosts are read at
    # x = 0 alone, and each report is the one the full walk gives.
    tables = dataclasses.replace(build_coefficients(ap4_full.ns))
    copied = build_host(ap4_full.ns, tables, ap4_full.sets)
    coeffs = dataclasses.replace(triangle_small.coeffs, mix=((0,), (0,)))
    flat = build_host(triangle_small.ns, coeffs, triangle_small.sets)
    fed = fed_prefixes(monkeypatch)
    reports = []
    for host, zero in ((copied, (0, 5)), (flat, (0,))):
        fed.clear()
        reports.append(check_representation(host))
        assert fed == [zero]
    monkeypatch.setattr(verify, "_exact", lambda host: False)
    for host, report in zip((copied, flat), reports):
        walked = check_representation(host)
        assert (report.render(), report.skipped) == (walked.render(), walked.skipped)
    assert [report.passed for report in reports] == [True, False]


def test_an_exact_host_passes_every_store_check(triangle_small, ap4_full):
    # check_representation passes simple, edge-counts and edge-equation
    # unrun on an exact host, so direct calls must pass there. The corpus
    # is the honest one, hosts on hand-made tables that cancel, and faulted
    # copies that must not be exact: an extra longer key, and an honest
    # key's vertices stored again in reverse.
    coeffs = dataclasses.replace(triangle_small.coeffs, mix=((0,), (0,)))
    honest = [triangle_small, ap4_full, *drawn_hosts(3, 40)]
    cancelling = [build_host(triangle_small.ns, coeffs, triangle_small.sets)]
    cancelling += [host for host, cancels in random_mix_hosts() if cancels]
    faulted = []
    for host in (triangle_small, ap4_full):
        longer, reversed_ = copy.deepcopy(host), copy.deepcopy(host)
        longer.by_key[tuple(range(0, host.n * (host.r + 1), host.n))] = (0, 0)
        key, stored = next(iter(host.by_key.items()))
        reversed_.by_key[key[::-1]] = stored
        faulted += [longer, reversed_]
    exact = [host for host in honest + cancelling + faulted if _exact(host)]
    assert exact == honest + cancelling
    for host in exact:
        assert check_simple(host).passed
        assert check_edge_counts(host).passed
        assert check_edge_equation(host).passed


# ---------------------------------------------------------------------------
# Full battery.


def test_report_triangle(triangle_small):
    report = check_representation(triangle_small)
    assert report.passed
    assert [e.name for e in report.entries] == [
        "simple",
        "edge-counts",
        "copy-count",
        "per-solution",
        "copy-structure",
        "edge-equation",
    ]
    assert (report.edges, report.solutions, report.copies) == (30, 1, 5)
    text = report.render()
    assert text.startswith("CHECK simple PASS\n")
    assert text.endswith("COUNTS edges=30 T=1 copies=5\n")


def test_report_ap4(ap4_full):
    report = check_representation(ap4_full)
    assert report.passed
    assert (report.edges, report.solutions, report.copies) == (500, 25, 625)


def test_report_skips_edge_equation_over_guard(triangle_small):
    report = check_representation(triangle_small, guard=10)
    assert report.passed
    assert "edge-equation" not in [e.name for e in report.entries]
    assert report.skipped == [("edge-equation", 75)]
    assert check_representation(triangle_small).skipped == []


def test_report_naive_mode(triangle_small):
    report = check_representation(triangle_small, mode="naive")
    assert report.passed
    assert report.copies == 5


def test_report_fails_on_fault(triangle_small):
    bad = copy.deepcopy(triangle_small)
    key = next(iter(bad.by_key))
    bad.by_key[key[::-1]] = bad.by_key[key]
    report = check_representation(bad)
    assert not report.passed
    failed = [e.name for e in report.entries if not e.passed]
    assert "simple" in failed
    assert "FAIL" in report.render()
