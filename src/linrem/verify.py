"""Independent verification of a built host.

Copy enumeration has one front door, enumerate_copies, with two routes:
a per-part walk over an index it builds from the edge list, and a naive
scan testing vertex k-sets with a counting placement test. The walk
reads row-color keys through Host.diag_layout, as copies_for_solution
does; the scan shares no logic with the construction and reads only the
normalized system, records and by_key. The index keeps each candidate
list sorted, so the walk yields copies in order and nothing sorts its
output. The scan is seeded: a spanning set holds an edge of the rarest
color and meets every part that some color's edges all touch, so only
k-sets extending such an edge into those parts are tested. Agreement
between the routes, the edge bookkeeping checks, and the copy-count
identity together certify the representation.

Per-solution and copy-structure share one pass over the enumerated
copies. A copy is fixed by (solution, x) and recovers its solution from
its U-part vertices. So if every recovered solution is admissible and
each of the T solutions recovers n^(r-1) copies, every solution spans
its full family. Edge-disjointness is structural: a color-j edge holds
all of x, and one solution's diagonal keys are another's shifted inside
each U part, so one family's distinct keys settle every family.

Both loops do per x-tuple what depends only on x: each row's x-part
key, and the candidate U vertices (walk) or, per U vertex, its x = 0
vertex and the free-color edge it closes (check), so the check reads
each free-color edge once per (x-tuple, U vertex), not once per copy.
Decoding a solution and testing it against the sets and the rows is
done once per solution, on its first copy; every copy still looks up
each of its row-color edges, and builds its free-color keys only when
a label is wrong. The walk and the naive scan both return nothing at
once when some color has no edge.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .errors import SearchBudgetExceeded
from .hrep import Host, VKey
from .linsys import NormalizedSystem
from .solutions import count_system, iter_solutions

PartIndex = list[dict[tuple[int, ...], list[int]]]


def _part_index(host: Host) -> PartIndex:
    """Per free color j, each x-part key's reachable U_j vertices, ascending.

    Sorted lists make the walk yield copies in lexicographic order.
    """
    width = host.r - 1
    index: PartIndex = [{} for _ in range(host.free)]
    for color, _, key in host.records:
        if color < host.free:
            index[color].setdefault(key[:width], []).append(key[-1])
    for values in index:
        for vals in values.values():
            vals.sort()
    return index


def _iter_per_part(host: Host, index: PartIndex):
    """Copies found by walking one vertex per part.

    Per x-tuple each row's x-part key and the candidate U vertices are
    read once; a candidate product then costs one by_key probe per row.
    x-part keys come in lexicographic order, parts occupy ascending vertex
    ranges and each candidate list is ascending, so the copies come out
    sorted.
    """
    n = host.n
    width = host.r - 1
    by_key = host.by_key
    rows = host.diag_layout()
    for prefix in itertools.product(*(range(t * n, (t + 1) * n) for t in range(width))):
        cands = [values.get(prefix) for values in index]
        if all(cands):
            xkeys = [(color, tuple(prefix[t] for t in outs), get_u) for color, outs, get_u in rows]
            for us in itertools.product(*cands):
                for color, xkey, get_u in xkeys:
                    stored = by_key.get(xkey + get_u(us))
                    if stored is None or stored[0] != color:
                        break
                else:
                    yield prefix + us


def _template_parts(ns: NormalizedSystem) -> list[frozenset[int]]:
    """Per color, the parts its template edge spans; template vertex t is part t.

    Free color j spans the x parts and U part j. Row color free+i spans
    the x parts outside row i's block and the U parts of its support and
    pivot columns.
    """
    width = ns.uniformity - 1
    parts = [frozenset([*range(width), width + j]) for j in range(ns.free_count)]
    for block, support, pivot in zip(ns.blocks, ns.support, ns.pivots):
        outside = [t for t in range(width) if t not in block]
        parts.append(frozenset([*outside, *(width + j for j in (*support, pivot))]))
    return parts


def _vertex_masks(ns: NormalizedSystem) -> list[int]:
    """Per template vertex, the bitmask of colors whose template edge holds it."""
    parts = _template_parts(ns)
    return [sum(1 << c for c, ps in enumerate(parts) if t in ps) for t in range(ns.vertex_count)]


def subset_spans_copy(host: Host, subset) -> bool:
    """Does this vertex subset carry a colored copy of the template.

    Makes no assumption about how the subset meets the parts: it collects
    the contained edges per color and searches for an injective placement
    of the template onto one edge of each color.
    """
    return _spans_copy(host, subset, _vertex_masks(host.ns))


def _spans_copy(host: Host, subset, masks: list[int]) -> bool:
    verts = tuple(sorted(subset))
    if len(set(verts)) != host.k:
        raise ValueError(f"subset {verts} does not have {host.k} distinct vertices")
    contained: list[list[VKey]] = [[] for _ in range(host.free + host.ell)]
    for combo in itertools.combinations(verts, host.r):
        stored = host.by_key.get(combo)
        if stored is not None:
            contained[stored[0]].append(combo)
    if any(not c for c in contained):
        return False
    need = Counter(masks).items()
    for choice in itertools.product(*contained):
        # Template vertex t may go to a subset vertex that lies on the
        # chosen edges of exactly the colors in masks[t]. Those candidates
        # form one class per mark, so a placement exists iff each mark has
        # as many subset vertices as template vertices.
        on = dict.fromkeys(verts, 0)
        for c, edge in enumerate(choice):
            for v in edge:
                on[v] |= 1 << c
        have = Counter(on.values())
        if all(have[m] >= count for m, count in need):
            return True
    return False


def enumerate_copies(
    host: Host,
    mode: str = "per-part",
    guard: int = 10**6,
) -> list[VKey]:
    """All copies as sorted vertex tuples, in sorted order.

    A host with a color that has no edge has no copy, whatever the mode.

    per-part walks one vertex per part, which yields the copies already
    sorted. naive tests seeded k-sets with subset_spans_copy: each edge e
    of the rarest color, one vertex in each unavoidable part (one that
    every edge of some color touches) that e misses, and any vertices in
    the spare slots. A spanning set holds such an e and meets every
    unavoidable part, so it is among them. On a built host every part is
    unavoidable: |E_rarest| * n^(k-r) sets.
    """
    if mode not in ("per-part", "naive"):
        raise ValueError(f"unknown mode {mode!r}")
    n, k = host.n, host.k
    if mode == "naive" and n**k > guard:
        raise SearchBudgetExceeded(f"naive scan needs {n ** k} tuples, guard is {guard}")
    colors = host.free + host.ell
    sizes = Counter(color for color, _, _ in host.records)
    rarest = min(range(colors), key=sizes.__getitem__)
    if not sizes[rarest]:
        return []
    if mode == "per-part":
        return list(_iter_per_part(host, _part_index(host)))
    common = [set(range(k)) for _ in range(colors)]
    for color, _, key in host.records:
        common[color] &= {v // n for v in key}
    unavoidable = set().union(*common)
    seeded = set()
    for key in [key for color, _, key in host.records if color == rarest]:
        missing = [range(p * n, (p + 1) * n) for p in sorted(unavoidable - {v // n for v in key})]
        spare = k - len(key) - len(missing)
        others = [v for v in range(n * k) if v not in key]
        for picks in itertools.product(*missing):
            for fill in itertools.combinations(others, max(spare, 0)):
                cand = set(key).union(picks, fill)
                # Too many missing parts, or a fill vertex that repeats a pick.
                if len(cand) == k:
                    seeded.add(tuple(sorted(cand)))
    masks = _vertex_masks(host.ns)
    return sorted(combo for combo in seeded if _spans_copy(host, combo, masks))


# ---------------------------------------------------------------------------
# Representation checks.


@dataclass
class CheckEntry:
    name: str
    passed: bool
    witness: str = ""

    def render(self) -> str:
        tail = f" {self.witness}" if self.witness else ""
        return f"CHECK {self.name} {'PASS' if self.passed else 'FAIL'}{tail}"


@dataclass
class VerificationReport:
    entries: list[CheckEntry] = field(default_factory=list)
    # (check name, tuples it needs) for each check the guard left out.
    skipped: list[tuple[str, int]] = field(default_factory=list)
    edges: int = 0
    solutions: int = 0
    copies: int = 0

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def render(self) -> str:
        lines = [e.render() for e in self.entries]
        lines.append(f"COUNTS edges={self.edges} T={self.solutions} copies={self.copies}")
        return "\n".join(lines) + "\n"


def check_simple(host: Host) -> CheckEntry:
    """No vertex set may carry two edges, and by_key must index the edge list exactly."""
    seen: dict[VKey, tuple[int, int]] = {}
    for color, label, key in host.records:
        if key in seen:
            return CheckEntry(
                "simple",
                False,
                f"vertices {key} carry {seen[key]} and {(color, label)}",
            )
        seen[key] = (color, label)
    if seen != host.by_key:
        key = next(
            key
            for key in itertools.chain(seen, host.by_key)
            if seen.get(key) != host.by_key.get(key)
        )
        return CheckEntry(
            "simple",
            False,
            f"vertices {key} carry {seen.get(key)} in the edge list, "
            f"{host.by_key.get(key)} in by_key",
        )
    return CheckEntry("simple", True)


def check_edge_counts(host: Host) -> CheckEntry:
    """Each admissible label owns exactly n^(r-1) edges of its color in the edge list."""
    expected = host.n ** (host.r - 1)
    total = expected * host.sets_n.total_size()
    if len(host.records) != total:
        return CheckEntry(
            "edge-counts", False, f"{len(host.records)} edges stored, wants {total}"
        )
    counts = Counter((color, label) for color, label, _ in host.records)
    want = {
        (color, label)
        for color in range(host.free + host.ell)
        for label in host.sets_n.sets[color]
    }
    stray = sorted(set(counts) - want)
    if stray:
        return CheckEntry(
            "edge-counts",
            False,
            f"color {stray[0][0] + 1} label {stray[0][1]} is not admissible",
        )
    for pair in sorted(want):
        if counts[pair] != expected:
            return CheckEntry(
                "edge-counts",
                False,
                f"color {pair[0] + 1} label {pair[1]} has {counts[pair]} edges, wants {expected}",
            )
    return CheckEntry("edge-counts", True)


def check_edge_equation(host: Host, guard: int = 10**6) -> CheckEntry:
    """Edge presence must match set membership on every candidate tuple.

    For each row, every choice of off-block x values and support-part and
    pivot-part vertices either solves the row's equation with an
    admissible label and carries exactly that edge, or does neither.
    Work is ell * n^r tuples, guarded.
    """
    ns = host.ns
    n = host.n
    width = host.r - 1
    if ns.ell * n**host.r > guard:
        raise SearchBudgetExceeded(
            f"edge equation check needs {ns.ell * n ** host.r} tuples, guard is {guard}"
        )
    mix = host.coeffs.mix
    for i in range(ns.ell):
        row = ns.base.rows[i]
        d = ns.diag_cols[i]
        m_i = ns.pivots[i]
        outs = host.coeffs.outside[i]
        support = ns.support[i]
        admissible = frozenset(host.sets_n.sets[d])
        inv_d = ns.field.inv(row[d])
        pbase = (width + m_i) * n
        for xs in itertools.product(range(n), repeat=len(outs)):
            xkey = tuple(t * n + x for t, x in zip(outs, xs))
            # Zero-extending x to the block positions recovers the
            # generating labels; the block contributions cancel.
            offs = [sum(mix[j][t] * x for t, x in zip(outs, xs)) for j in support]
            off_m = sum(mix[m_i][t] * x for t, x in zip(outs, xs))
            for ys in itertools.product(range(n), repeat=len(support)):
                ykey = xkey + tuple((width + j) * n + y for j, y in zip(support, ys))
                acc = ns.base.rhs[i] + off_m
                for j, y, o in zip(support, ys, offs):
                    acc -= row[j] * ((y - o) % n)
                for ym in range(n):
                    label = (acc - ym) * inv_d % n
                    member = label in admissible
                    key = ykey + (pbase + ym,)
                    stored = host.by_key.get(key)
                    present = stored is not None and stored[0] == host.free + i
                    if member != present or (present and stored[1] != label):
                        return CheckEntry(
                            "edge-equation",
                            False,
                            f"row {i + 1} vertices {key}: membership says "
                            f"{'edge' if member else 'no edge'} with label {label}, "
                            f"store says {stored}",
                        )
    return CheckEntry("edge-equation", True)


def check_copies(host: Host, copies: list[VKey], solutions: int) -> tuple[CheckEntry, CheckEntry]:
    """Per-solution and copy-structure entries from one pass over the copies.

    Copies recovering no admissible solution fail copy-structure and stay
    out of the per-solution tallies, which the module docstring explains.
    The x-part work is redone only when the prefix changes, so sorted
    copies pay it once per x-tuple; a solution is decoded and checked on
    its first copy.
    """
    ns = host.ns
    n = host.n
    width = host.r - 1
    by_key = host.by_key
    mix = host.coeffs.mix
    rows = host.diag_layout()
    admissible = host.sets_n.frozensets()
    diag_inv = [ns.field.inv(row[c]) for row, c in zip(ns.base.rows, ns.diag_cols)]
    eqs = list(zip(ns.base.rows, ns.base.rhs, ns.pivots, ns.support, diag_inv))
    x_parts = tuple(range(width))
    u_parts = tuple(range(width, host.k))
    expected = n**width
    structure = labels = ""
    # x = 0 U vertices of an admissible solution -> [solution, (color, label)
    # per color, copies seen].
    solved: dict[tuple[int, ...], list] = {}
    first = None
    owner: dict[tuple[int, VKey], tuple[int, ...]] = {}
    prefix = None
    # The stored (color, label) of each U vertex's free-color edge at the
    # current x-tuple, indexed by vertex id.
    free_got: list = [None] * (n * host.k)
    for vkey in copies:
        if vkey[:width] != prefix:
            prefix = vkey[:width]
            xs = tuple(v % n for v in prefix)
            x_ok = tuple(v // n for v in prefix) == x_parts
            if x_ok:
                # Each U vertex maps to the one its solution's copy has at
                # x = 0: the same part, shifted back by that part's mix offset.
                # Its free-color edge is read here, once per x-tuple.
                at_zero = {}
                for j, a in enumerate(mix):
                    off = sum(c * x for c, x in zip(a, xs))
                    lo = (width + j) * n
                    for u in range(lo, lo + n):
                        at_zero[u] = lo + (u - off) % n
                        free_got[u] = by_key.get(prefix + (u,))
                diag = [(tuple(prefix[t] for t in outs), get_u) for _, outs, get_u in rows]
        us = vkey[width:]
        # A tallied x = 0 tuple has every vertex in its own part, so only a
        # new one needs the part check.
        zero = tuple(map(at_zero.get, us)) if x_ok else None
        known = solved.get(zero)
        if known is None:
            if not x_ok or tuple(v // n for v in us) != u_parts:
                structure = structure or f"copy {vkey} does not meet every part once"
                continue
            sol = [v % n for v in zero]
            for row, rhs, m_i, support, inv in eqs:
                sol.append((rhs - sol[m_i] - sum(row[j] * sol[j] for j in support)) * inv % n)
            bad = next((col for col, val in enumerate(sol) if val not in admissible[col]), None)
            if bad is not None:
                structure = structure or (
                    f"copy {vkey} needs value {sol[bad]} in set {bad + 1}, not admissible"
                )
                continue
            if not ns.base.is_solution(sol):
                structure = structure or f"copy {vkey} recovers non-solution {sol}"
                continue
            # Color c's edge carries label sol[c], as diag_cols[i] is free + i.
            known = solved[zero] = [tuple(sol), list(enumerate(sol)), 0]
            first = first or known
        known[2] += 1
        got = list(map(free_got.__getitem__, us))
        for xkey, get_u in diag:
            got.append(by_key.get(xkey + get_u(us)))
        if got == known[1] and known is not first:
            continue
        sol, want, _ = known
        keys = [prefix + (u,) for u in us] + [xkey + get_u(us) for xkey, get_u in diag]
        for c, key in enumerate(keys):
            if got[c] != want[c]:
                labels = labels or f"solution {sol}: color {c + 1} edge missing for x={xs}"
            elif c >= host.free and known is first:
                ref = (c, key)
                prev = owner.setdefault(ref, xs)
                if prev != xs:
                    labels = labels or f"solution {sol}: edge {ref} shared by x={prev} and x={xs}"
    tally = {sol: count for sol, _, count in solved.values()}
    short = min((s for s, k in tally.items() if k != expected), default=None)
    if not labels and short is not None:
        labels = f"solution {short} spans {tally[short]} copies, wants {expected}"
    elif not labels and len(tally) != solutions:  # the only walk over solutions
        missing = next((s for s in iter_solutions(ns, host.sets) if s not in tally), None)
        labels = f"solution {missing} spans 0 copies, wants {expected}"
    return (
        CheckEntry("per-solution", not labels, labels),
        CheckEntry("copy-structure", not structure, structure),
    )


def check_representation(
    host: Host,
    mode: str = "per-part",
    guard: int = 10**6,
) -> VerificationReport:
    """Run the full check battery and collect a printable report.

    guard bounds the naive copy scan; the edge-equation check is left out
    of the entries, and recorded in skipped with its tuple count, when
    that count exceeds it.
    """
    report = VerificationReport()
    report.entries.append(check_simple(host))
    report.entries.append(check_edge_counts(host))
    copies = enumerate_copies(host, mode=mode, guard=guard)
    solutions = count_system(host.ns.base, host.sets_n)
    expected = solutions * host.n ** (host.r - 1)
    entry = CheckEntry("copy-count", len(copies) == expected)
    if not entry.passed:
        entry.witness = f"{len(copies)} copies, wants {expected}"
    report.entries.append(entry)
    report.entries.extend(check_copies(host, copies, solutions))
    tuples = host.ns.ell * host.n**host.r
    if tuples <= guard:
        report.entries.append(check_edge_equation(host, guard=guard))
    else:
        report.skipped.append(("edge-equation", tuples))
    report.edges = len(host.records)
    report.solutions = solutions
    report.copies = len(copies)
    return report
