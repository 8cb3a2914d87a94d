import dataclasses
import itertools
import random
from collections import Counter

import pytest

from conftest import cofactor_det, full_sets, mk_sets, mk_system
from linrem.errors import (
    EdgeNotInHost,
    InputError,
    InvariantViolation,
    MissingEdge,
    ParseError,
    SimplicityViolation,
)
from linrem.hrep import (
    Host,
    build_coefficients,
    build_host,
    copies_for_solution,
    export_host,
    export_plans,
    host_plans,
    iter_host_edges,
    parse_host_export,
)
from linrem.field import PrimeField
from linrem.linsys import SetFamily, mat_vec, normalize
from linrem.verify import _part_index, _template_parts


def triangle7_ns():
    return normalize(mk_system(7, [[1, 1, -1]], [0]))


def triangle5_ns():
    return normalize(mk_system(5, [[1, 1, -1]], [0]))


def ap4_ns():
    return normalize(mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0]))


# ---------------------------------------------------------------------------
# Coefficient tables.


def test_coefficients_triangle_f7():
    tables = build_coefficients(triangle7_ns())
    assert tables.mix == ((1,), (6,))
    assert tables.sep == (((1,),),)
    assert tables.outside == ((),)
    assert tables.closing == ((),)


def test_coefficients_ap4_f5():
    ns = ap4_ns()
    tables = build_coefficients(ns)
    assert tables.mix == ((1, 1), (3, 4))
    assert tables.sep == (
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
    )
    assert tables.outside == ((1,), (0,))
    assert tables.closing == ((1,), (4,))


def test_coefficient_cancellation_identity():
    # Support columns cancel the pivot row entry on every block position.
    for ns in (triangle7_ns(), ap4_ns()):
        fld = ns.field
        tables = build_coefficients(ns)
        for i in range(ns.ell):
            row = ns.base.rows[i]
            for t in ns.blocks[i]:
                acc = sum(tables.mix[j][t] * row[j] for j in ns.support[i]) % fld.q
                assert acc == fld.neg(tables.mix[ns.pivots[i]][t])


def test_separation_matrices_nonsingular():
    for ns in (triangle7_ns(), ap4_ns(), triangle5_ns()):
        tables = build_coefficients(ns)
        for mat in tables.sep:
            assert cofactor_det(ns.field.q, mat) != 0


# ---------------------------------------------------------------------------
# Template, as the naive oracle reads it: per color, the parts its edge spans.


def test_template_triangle():
    ns = triangle7_ns()
    assert ns.uniformity == 2
    assert ns.vertex_count == 3
    assert _template_parts(ns) == [{0, 1}, {0, 2}, {1, 2}]


def test_template_ap4():
    ns = ap4_ns()
    assert ns.uniformity == 3
    assert ns.vertex_count == 4
    assert _template_parts(ns) == [{0, 1, 2}, {0, 1, 3}, {1, 2, 3}, {0, 2, 3}]


@pytest.mark.parametrize("p,q", [(3, 7), (4, 7), (5, 11)])
def test_single_dense_equation_uniformity(p, q):
    ns = normalize(mk_system(q, [[1] * p], [0]))
    assert ns.uniformity == p - 1
    # p - 2 shared vertices plus one vertex per variable part.
    assert ns.vertex_count == 2 * p - 3
    parts = _template_parts(ns)
    assert all(len(ps) == p - 1 for ps in parts)
    assert set().union(*parts) == set(range(2 * p - 3))


# ---------------------------------------------------------------------------
# Host construction, checked against a from-scratch edge table.


def triangle5_expected_edges(sets):
    """Direct transcription of the three edge rules for x1 + x2 = x3 at q=5."""
    expect = {}
    for s in sets[0]:
        for x in range(5):
            expect[(x, 5 + (s + x) % 5)] = (0, s)
    for s in sets[1]:
        for x in range(5):
            expect[(x, 10 + (s - x) % 5)] = (1, s)
    for s in sets[2]:
        for y1 in range(5):
            expect[(5 + y1, 10 + (s - y1) % 5)] = (2, s)
    return expect


def test_host_triangle_matches_direct_rules():
    ns = triangle5_ns()
    sets = mk_sets(5, [[1, 2]] * 3)
    host = build_host(ns, build_coefficients(ns), sets)
    assert len(host.by_key) == 30
    assert host.by_key == triangle5_expected_edges(sets.sets)


def test_build_host_refuses_an_edge_with_two_labels():
    # With a zero diagonal entry the row color's closing vertex no longer
    # depends on the label, so labels 1 and 2 land on the same vertex pair.
    ns = triangle5_ns()
    row = list(ns.base.rows[0])
    row[ns.diag_cols[0]] = 0
    bad = dataclasses.replace(ns, base=dataclasses.replace(ns.base, rows=(tuple(row),)))
    with pytest.raises(SimplicityViolation, match=r"edge \(5, 10\) carries both \(2, 1\) and \(2, 2\)"):
        build_host(bad, build_coefficients(bad), mk_sets(5, [[1, 2]] * 3))


def zero_diagonal(ns, i):
    """ns with row i's diagonal entry set to 0, so its label no longer moves the key."""
    rows = [list(row) for row in ns.base.rows]
    rows[i][ns.diag_cols[i]] = 0
    return dataclasses.replace(ns, base=dataclasses.replace(ns.base, rows=tuple(map(tuple, rows))))


def first_repeat(ns, coeffs, sets_n):
    """build_host's message for the first key the per-edge stream repeats,
    against its earlier (color, label); None when no key repeats."""
    seen = {}
    for color, label, key in reference_host_edges(ns, coeffs, sets_n):
        if key in seen:
            return f"edge {key} carries both {seen[key]} and {(color, label)}"
        seen[key] = (color, label)
    return None


F5 = PrimeField(5)


# build_host's messages from when it replayed the stream to name a
# repeated key; the plan certificate must give each unchanged.
@pytest.mark.parametrize(
    "ns, sets, message",
    [
        pytest.param(zero_diagonal(triangle5_ns(), 0), mk_sets(5, [[1, 2]] * 3),
                     "edge (5, 10) carries both (2, 1) and (2, 2)", id="triangle-zero-diagonal"),
        pytest.param(zero_diagonal(ap4_ns(), 0), mk_sets(5, [[1, 2]] * 4),
                     "edge (5, 10, 15) carries both (2, 1) and (2, 2)", id="ap4-zero-diagonal-row-1"),
        pytest.param(zero_diagonal(ap4_ns(), 1), mk_sets(5, [[1, 2]] * 4),
                     "edge (0, 10, 15) carries both (3, 1) and (3, 2)", id="ap4-zero-diagonal-row-2"),
        pytest.param(zero_diagonal(ap4_ns(), 1), mk_sets(5, [[4], [3], [2, 3], [0, 1, 4]]),
                     "edge (0, 10, 15) carries both (3, 0) and (3, 1)", id="ap4-zero-diagonal-three-labels"),
        pytest.param(zero_diagonal(normalize(mk_system(5, [[1, -2, 1, 0], [0, 1, -2, 1]], [1, 3])), 0),
                     mk_sets(5, [[1, 2]] * 4),
                     "edge (5, 10, 17) carries both (2, 1) and (2, 2)", id="ap4-rhs-zero-diagonal"),
        pytest.param(triangle5_ns(), SetFamily(F5, ((1, 1), (2,), (3,))),
                     "edge (0, 6) carries both (0, 1) and (0, 1)", id="repeated-free-label"),
        pytest.param(triangle5_ns(), SetFamily(F5, ((1,), (2,), (3, 3))),
                     "edge (5, 13) carries both (2, 3) and (2, 3)", id="repeated-row-label"),
        pytest.param(triangle5_ns(), SetFamily(F5, ((1, 6), (2,), (3,))),
                     "edge (0, 6) carries both (0, 1) and (0, 6)", id="aliased-free-label"),
        pytest.param(ap4_ns(), SetFamily(F5, ((0,), (1,), (2, 7), (4,))),
                     "edge (5, 10, 16) carries both (2, 2) and (2, 7)", id="aliased-row-label"),
    ],
)
def test_plan_certificate_names_the_first_repeated_key(ns, sets, message):
    coeffs = build_coefficients(ns)
    sets_n = ns.permute_family(sets)
    assert first_repeat(ns, coeffs, sets_n) == message
    for call in (
        lambda: host_plans(ns, coeffs, sets_n),
        lambda: next(iter_host_edges(ns, coeffs, sets_n)),
        lambda: build_host(ns, coeffs, sets),
        lambda: Host(ns, coeffs, sets),
    ):
        with pytest.raises(SimplicityViolation) as exc:
            call()
        assert str(exc.value) == message


def test_plan_certificate_agrees_with_a_brute_force_repeat_scan():
    # Random systems, some with a row's diagonal entry zeroed, under
    # families built without make: labels may repeat, exceed n or be
    # negative. The certificate raises exactly when the materialized
    # stream repeats a key, with the scan's message.
    rng = random.Random(35)
    outcomes = Counter()
    while sum(outcomes.values()) < 200:
        q = rng.choice([2, 3, 5, 7])
        ell = rng.choice([1, 2])
        p = rng.randint(ell + 2, ell + 3)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        try:
            ns = normalize(mk_system(q, rows, [rng.randrange(q) for _ in range(ell)]))
        except InputError:
            continue
        if q ** (ns.uniformity - 1) > 500:
            continue
        if rng.random() < 0.3:
            ns = zero_diagonal(ns, rng.randrange(ns.ell))
        sets = SetFamily(
            PrimeField(q),
            tuple(tuple(rng.randrange(-q, 2 * q) for _ in range(rng.randint(0, 3))) for _ in range(p)),
        )
        coeffs = build_coefficients(ns)
        sets_n = ns.permute_family(sets)
        want = first_repeat(ns, coeffs, sets_n)
        try:
            host_plans(ns, coeffs, sets_n)
            got = None
        except SimplicityViolation as exc:
            got = str(exc)
        assert got == want
        outcomes[want is None] += 1
    assert min(outcomes.values()) >= 50


def test_plan_refuses_two_colors_keyed_on_the_same_parts():
    # ap4's rows share their support and pivot columns and differ only in
    # the x part outside their blocks; an edited outside table gives both
    # row colors the same parts in the same order, refused before the
    # stream yields its first batch.
    ns = ap4_ns()
    own = build_coefficients(ns)
    bad = dataclasses.replace(own, outside=(own.outside[0], own.outside[0]))
    stream = iter_host_edges(ns, bad, ns.permute_family(mk_sets(5, [[1, 2]] * 4)))
    with pytest.raises(InvariantViolation, match=r"^colors 3 and 4 key the same parts$"):
        next(stream)
    with pytest.raises(InvariantViolation, match=r"^colors 3 and 4 key the same parts$"):
        build_host(ns, bad, mk_sets(5, [[1]] * 4))
    with pytest.raises(InvariantViolation, match=r"^colors 3 and 4 key the same parts$"):
        Host(ns, bad, mk_sets(5, [[1]] * 4))


def test_host_counts_per_color_label():
    ns = ap4_ns()
    sets = mk_sets(5, [[0, 2], [1], [1, 2, 3], [4]])
    host = build_host(ns, build_coefficients(ns), sets)
    shell = host.n ** (host.r - 1)
    labels = {
        (color, label)
        for color in range(4)
        for label in host.sets_n.sets[color if color < host.free else host.ns.diag_cols[color - host.free]]
    }
    counts = Counter(host.by_key.values())
    assert set(counts) == labels
    assert all(v == shell for v in counts.values())
    assert len(host.by_key) == shell * sets.total_size()


def test_host_empty_sets():
    ns = triangle5_ns()
    host = build_host(ns, build_coefficients(ns), mk_sets(5, [[], [], []]))
    assert host.by_key == {}
    assert host.records == ()


def test_host_iteration_deterministic():
    ns = ap4_ns()
    sets = mk_sets(5, [[0, 1], [2], [1, 3], [0, 4]])
    coeffs = build_coefficients(ns)
    sets_n = ns.permute_family(sets)
    assert list(iter_host_edges(ns, coeffs, sets_n)) == list(iter_host_edges(ns, coeffs, sets_n))


def reference_host_edges(ns, coeffs, sets_n):
    """The edge stream written as one formula per edge, with no hoisted work."""
    n = ns.field.q
    width = ns.uniformity - 1
    free = ns.free_count
    rows = ns.base.rows
    rhs = ns.base.rhs
    for j in range(free):
        a = coeffs.mix[j]
        upart = width + j
        for label in sets_n.sets[j]:
            for xs in itertools.product(range(n), repeat=width):
                y = (label + sum(c * x for c, x in zip(a, xs))) % n
                key = tuple(t * n + x for t, x in enumerate(xs)) + (upart * n + y,)
                yield j, label, key
    for i in range(ns.ell):
        color = free + i
        d = ns.diag_cols[i]
        m_i = ns.pivots[i]
        support = ns.support[i]
        outs = coeffs.outside[i]
        closing = coeffs.closing[i]
        for label in sets_n.sets[d]:
            base = (rhs[i] - rows[i][d] * label) % n
            for xs in itertools.product(range(n), repeat=len(outs)):
                xacc = base + sum(c * x for c, x in zip(closing, xs))
                xkey = tuple(t * n + x for t, x in zip(outs, xs))
                for ys in itertools.product(range(n), repeat=len(support)):
                    y = (xacc - sum(rows[i][j] * yv for j, yv in zip(support, ys))) % n
                    key = xkey + tuple((width + j) * n + yv for j, yv in zip(support, ys))
                    key += ((width + m_i) * n + y,)
                    yield color, label, key


def test_host_edges_match_per_edge_formula():
    # Random full-rank systems with partial and empty sets; the stream,
    # one batch per label, must equal the per-edge formula edge for edge,
    # order included, and so must the built host's by_key and the edge
    # tuple derived from it; the plan-rendered export equals the
    # one-edge-at-a-time export of that store.
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        q = rng.choice([2, 3, 5, 7, 11, 13])
        ell = rng.choice([1, 2])
        p = rng.randint(ell + 2, ell + 3)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        rhs = [rng.randrange(q) for _ in range(ell)]
        try:
            ns = normalize(mk_system(q, rows, rhs))
        except InputError:
            continue
        if q ** (ns.uniformity - 1) > 3000:
            continue
        sets = mk_sets(q, [rng.sample(range(q), rng.choice([0, 1, q // 2, q])) for _ in range(p)])
        coeffs = build_coefficients(ns)
        sets_n = ns.permute_family(sets)
        want = list(reference_host_edges(ns, coeffs, sets_n))
        batches = list(iter_host_edges(ns, coeffs, sets_n))
        assert [(c, lab, key) for c, lab, keys in batches for key in keys] == want
        assert len({(c, lab) for c, lab, _ in batches}) == len(batches)
        host = build_host(ns, coeffs, sets)
        assert list(host.by_key.items()) == [(key, (c, lab)) for c, lab, key in want]
        assert host.records == tuple(want)
        assert export_plans(ns, coeffs, sets_n) == reference_export(host)
        checked += 1


def test_host_edges_match_per_edge_formula_on_larger_fields():
    # The fields where each color's running offset sums are longest: the
    # stream must still equal the per-edge formula, order included, on
    # one- and two-row systems with nonzero right-hand sides and partial
    # and empty sets.
    rng = random.Random(28)
    seen = Counter()
    checked = 0
    while checked < 30:
        q = rng.choice([17, 19, 23])
        ell = rng.choice([1, 2])
        p = rng.randint(ell + 2, ell + 3)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        rhs = [rng.randrange(1, q) for _ in range(ell)]
        try:
            ns = normalize(mk_system(q, rows, rhs))
        except InputError:
            continue
        if q ** (ns.uniformity - 1) > q * q:
            continue
        sets = mk_sets(q, [rng.sample(range(q), rng.choice([0, 1, 3, q // 2, q])) for _ in range(p)])
        coeffs = build_coefficients(ns)
        sets_n = ns.permute_family(sets)
        want = list(reference_host_edges(ns, coeffs, sets_n))
        batches = list(iter_host_edges(ns, coeffs, sets_n))
        assert [(c, lab, key) for c, lab, keys in batches for key in keys] == want
        seen.update(
            [f"q{q}", f"ell{ell}"]
            + ["rhs"] * any(ns.base.rhs)
            + ["empty"] * (() in sets_n.sets)
            + ["row-batch"] * any(c >= ns.free_count for c, _, _ in batches)
        )
        checked += 1
    assert all(seen[tag] for tag in ("q17", "q19", "q23", "ell1", "ell2", "rhs", "empty", "row-batch"))


def test_host_x_index_label_order():
    # The per-part walk of the verifier indexes the edge list itself, by
    # x-part vertex ids, and keeps each list of U vertex ids ascending, so
    # the walk comes out sorted. With two x parts the V2 ids (5..9) differ
    # from their values.
    ns = ap4_ns()
    sets = mk_sets(5, [[0, 2], [1], [1, 2, 3], [4]])
    host = build_host(ns, build_coefficients(ns), sets)
    index = _part_index(host)
    mix = host.coeffs.mix
    assert [len(values) for values in index] == [25, 25]
    for x1, x2 in itertools.product(range(5), repeat=2):
        for j, values in enumerate(index):
            off = mix[j][0] * x1 + mix[j][1] * x2
            want = sorted((2 + j) * 5 + (label + off) % 5 for label in host.sets_n.sets[j])
            assert values[(x1, 5 + x2)] == want


def test_shifts_match_the_edge_stream():
    # Every free-color edge joins an x-tuple to the U_j vertex of value
    # label + mix_j . x; Host.shifts gives that offset from the x-part key
    # alone, and none at x = 0. Seeded one- and two-row systems with
    # nonzero right-hand sides and partial sets.
    rng = random.Random(27)
    hosts = rhs_nonzero = partial = 0
    ells = set()
    while hosts < 40:
        q = rng.choice([3, 5, 7])
        ell = rng.choice([1, 2])
        p = rng.randint(ell + 2, ell + 3)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        rhs = [rng.randrange(q) for _ in range(ell)]
        try:
            ns = normalize(mk_system(q, rows, rhs))
        except InputError:
            continue
        if q ** (ns.uniformity - 1) > 400:
            continue
        sets = mk_sets(q, [rng.sample(range(q), rng.randint(1, q)) for _ in range(p)])
        coeffs = build_coefficients(ns)
        host = build_host(ns, coeffs, sets)
        width = host.r - 1
        assert host.shifts(tuple(t * q for t in range(width))) == [0] * host.free
        for color, label, keys in iter_host_edges(ns, coeffs, host.sets_n):
            if color >= host.free:
                continue
            for key in keys:
                assert (key[-1] - label - host.shifts(key[:width])[color]) % q == 0, key
        rhs_nonzero += any(ns.base.rhs)
        partial += host.sets_n.total_size() < q * (host.free + host.ell)
        ells.add(ell)
        hosts += 1
    assert rhs_nonzero and partial and ells == {1, 2}


def test_part_names():
    # x parts are V1..V{r-1}, free columns U1..U{p-ell}; vertex id part*n + value.
    ns = ap4_ns()
    host = Host(ns, build_coefficients(ns), mk_sets(5, [[0]] * 4))
    host.by_key = {(0, 6, 12, 18): (0, 3), (4, 9): (2, 1), (5, 10): (2, 1)}
    text = export_host(host)
    assert text == "1 3 V1:0 V2:1 U1:2 U2:3\n3 1 V1:4 V2:4\n3 1 V2:0 U1:0\n"


def vertex_name(host, v):
    """The export name of vertex id v, written out for the reference exports."""
    part, width = v // host.n, host.r - 1
    return f"V{part + 1}:{v % host.n}" if part < width else f"U{part - width + 1}:{v % host.n}"


# ---------------------------------------------------------------------------
# Copies of a solution.


def test_copies_triangle_solution():
    ns = triangle5_ns()
    sets = mk_sets(5, [[1, 2]] * 3)
    host = build_host(ns, build_coefficients(ns), sets)
    copies = copies_for_solution(host, (1, 1, 2))
    assert copies == [(x, 5 + (1 + x) % 5, 10 + (1 - x) % 5) for x in range(5)]
    # Free colors ascending, then the row color, whose key holds no x vertex.
    assert host.copy_edges(copies[:1]) == [((0, (0, 6)), (1, (0, 11)), (2, (6, 11)))]
    for a, b in itertools.combinations(host.copy_edges(copies), 2):
        assert not set(a) & set(b)


def test_copies_reject_non_solution():
    ns = triangle5_ns()
    sets = mk_sets(5, [[1, 2]] * 3)
    host = build_host(ns, build_coefficients(ns), sets)
    with pytest.raises(MissingEdge):
        copies_for_solution(host, (1, 1, 3))
    # (0,0,0) solves the equation but its labels are not admissible.
    with pytest.raises(MissingEdge):
        copies_for_solution(host, (0, 0, 0))


def test_copy_diag_vertices_are_affine_in_x():
    # For each row, the non-pivot vertices of the diagonal edge are
    # sep[i] applied to x plus the solution labels on block positions.
    ns = ap4_ns()
    fld = ns.field
    sets = full_sets(5, 4)
    host = build_host(ns, build_coefficients(ns), sets)
    tables = host.coeffs
    solution = (1, 3, 0, 2)
    assert ns.base.is_solution(solution)
    width = ns.uniformity - 1
    for copy in copies_for_solution(host, solution):
        values = [v % fld.q for v in copy]
        xs, us = values[:width], values[width:]
        for i in range(ns.ell):
            image = mat_vec(fld, tables.sep[i], xs)
            for t in range(width):
                if t in ns.blocks[i]:
                    g = ns.blocks[i].index(t)
                    j = ns.support[i][g]
                    assert us[j] == (image[t] + solution[j]) % fld.q
                else:
                    assert xs[t] == image[t]


def test_distinct_x_never_share_edges():
    ns = ap4_ns()
    host = build_host(ns, build_coefficients(ns), full_sets(5, 4))
    copies = copies_for_solution(host, (0, 0, 0, 0))
    assert len(copies) == 25
    seen = {}
    for copy, edges in zip(copies, host.copy_edges(copies)):
        for edge in edges:
            assert edge not in seen
            seen[edge] = copy


# ---------------------------------------------------------------------------
# Export format.


def test_export_triangle_golden():
    ns = triangle5_ns()
    sets = mk_sets(5, [[1, 2]] * 3)
    host = build_host(ns, build_coefficients(ns), sets)
    expected_lines = []
    for key, (color, label) in triangle5_expected_edges(sets.sets).items():
        parts = " ".join(vertex_name(host, v) for v in key)
        expected_lines.append(f"{color + 1} {label} {parts}")
    assert export_host(host) == "\n".join(sorted(expected_lines)) + "\n"


def reference_export(host):
    """export_host written one edge at a time from by_key with f-strings."""
    lines = [
        f"{color + 1} {label} " + " ".join(vertex_name(host, v) for v in key)
        for key, (color, label) in host.by_key.items()
    ]
    return "\n".join(sorted(lines)) + "\n"


def test_export_sorts_as_text_on_f13():
    # Over F13 string order differs from numeric order (V1:10 before V1:2),
    # so the export is sorted on its text, not on the vertex keys.
    ns = normalize(mk_system(13, [[1, -2, 1, 0], [0, 1, -2, 1]], [0, 0]))
    sets = mk_sets(13, [[0, 2, 10, 12], [1, 11], [3, 4, 5, 9, 12], [2, 7, 10]])
    host = build_host(ns, build_coefficients(ns), sets)
    text = export_host(host)
    assert text == reference_export(host)
    lines = text.splitlines()
    assert len(lines) == len(host.by_key) == 169 * 14
    assert lines.index("1 0 V1:10 V2:0 U1:10") < lines.index("1 0 V1:2 V2:0 U1:2")


def test_export_store_with_keys_of_two_lengths():
    # One extra key, one vertex longer, in the middle of a run: the run
    # splits by key length, and every edge still gets its own line.
    ns = ap4_ns()
    host = build_host(ns, build_coefficients(ns), mk_sets(5, [[0, 2], [1, 4], [3], [2, 3]]))
    items = list(host.by_key.items())
    key, value = items[3]
    items.insert(4, (key + (19,), value))
    host.by_key = dict(items)
    text = export_host(host)
    assert text == reference_export(host)
    assert len(text.splitlines()) == len(host.by_key) == len(items)
    assert f"{value[0] + 1} {value[1]} V1:0 V2:3 U1:3 U2:4" in text.splitlines()


def test_export_store_with_an_empty_key():
    # An edge stored under the empty key has no vertex column to bound the
    # run; it still gets its own line, which the reader refuses as too short.
    ns = triangle5_ns()
    host = build_host(ns, build_coefficients(ns), mk_sets(5, [[1, 2]] * 3))
    lines = export_host(host).splitlines()
    host.by_key[()] = (0, 1)
    text = export_host(host)
    assert text == "\n".join(sorted(lines + ["1 1"])) + "\n"
    assert len(text.splitlines()) == len(host.by_key) == 31
    with pytest.raises(ParseError, match=r"^line 1: expected 'color label part:vertex \.\.\.'$"):
        parse_host_export(host, text)


def test_export_round_trip():
    ns = ap4_ns()
    sets = mk_sets(5, [[0, 2], [1, 4], [3], [2, 3]])
    host = build_host(ns, build_coefficients(ns), sets)
    refs = parse_host_export(host, export_host(host))
    assert sorted(refs) == sorted((color, key) for key, (color, _) in host.by_key.items())


def test_parse_export_splits_on_any_whitespace():
    # A hand-edited export line may gain a tab between fields, runs of
    # spaces or trailing blanks; like parse_system, the reader takes them.
    ns = triangle5_ns()
    host = build_host(ns, build_coefficients(ns), mk_sets(5, [[1, 2]] * 3))
    lines = export_host(host).splitlines()
    edited = [line.replace(" ", "\t", 1).replace(" ", "   ", 1) + " \t" for line in lines]
    assert parse_host_export(host, "\n".join(edited)) == parse_host_export(host, "\n".join(lines))


def test_parse_export_errors():
    ns = triangle5_ns()
    host = build_host(ns, build_coefficients(ns), mk_sets(5, [[1, 2]] * 3))
    with pytest.raises(ParseError, match="line 1"):
        parse_host_export(host, "1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_host_export(host, "1 2 V1:0 U1:1\n1 x V1:0 U1:1\n")
    # A part name must be V or U followed by decimal digits: an empty name
    # or a superscript digit is a malformed line, not a crash.
    for line in ("1 2 W1:0 U1:1", "1 1 :3 U1:1", "1 1 V²:3 U1:1"):
        with pytest.raises(ParseError, match="line 1: malformed"):
            parse_host_export(host, line + "\n")
    assert parse_host_export(host, "") == []
    assert parse_host_export(host, "\n  \n") == []
    # Every line is parsed before any is looked up.
    with pytest.raises(ParseError, match="line 2: malformed"):
        parse_host_export(host, "9 1 V1:0 U1:1\n1 x V1:0 U1:1\n")
    with pytest.raises(EdgeNotInHost, match="color 9 out of range"):
        parse_host_export(host, "9 1 V1:0 U1:1\n")
    with pytest.raises(EdgeNotInHost, match="no color-1 edge labeled 3"):
        parse_host_export(host, "1 3 V1:0 U1:3\n")
