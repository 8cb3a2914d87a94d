"""Independent verification of a built host.

A copy is its sorted vertex tuple, one vertex per part, whichever
routine produced it. Copy enumeration has one front door,
enumerate_copies, with two routes: a per-part walk over an index it
builds from the edge list, and a naive scan testing vertex k-sets with a
counting placement test. The walk reads row-color keys through
Host.row_keys, as copies_for_solution does; the scan shares no logic
with the construction and reads only the normalized system and by_key.
The index keeps each candidate list sorted, so the walk yields copies
in order and nothing sorts its output. The scan is seeded: a spanning
set holds an edge of the rarest color and meets every part that some
color's edges all touch, so only k-sets extending such an edge into
those parts are tested. Agreement between the routes, the edge
bookkeeping checks, and the copy-count identity together certify the
representation.

Per-solution and copy-structure share one pass over the copies. A copy
is fixed by (solution, x) and recovers its solution from its U-part
vertices. So if every recovered solution is admissible and each of the
T solutions recovers n^(r-1) copies, every solution spans its full
family. Edge-disjointness is structural: a color-j edge holds all of x,
and one solution's diagonal keys are another's shifted inside each U
part, so one family's distinct keys settle every family.

One walk loop, _iter_per_part, yields one batch per x-tuple: its
U-tuples and the row-color edge each closes, probed once.
enumerate_copies flattens the batches and check_representation feeds
them to the copy check; check_copies cuts a copy list into batches by
x-part prefix. Per batch the check reads each free-color edge once per
U vertex. A batch holding one copy of every solution decoded so far, all
labels right, is a full batch and passes with one set comparison. Any
other batch first decodes its copies of no known solution, a column at a
time, is compared again, and is checked copy by copy if it still fails.

check_representation holds no copy list. Solution s's copy at x has U_j
vertex s_j + mix_j . x, the shift Host.shifts gives, so each x-tuple's
copies are x = 0's translated. When by_key is exactly the edge set the
edge equation predicts and that set is translation invariant, which
_exact settles from the shifts and one probe per stored edge, whatever
the tables, the walk reads x = 0 alone, its candidates straight from the
admissible labels. If its batch is full, one credit call counts every
later x-tuple's, unwalked; if it is empty, nothing more is walked.
Otherwise every x-tuple is walked and fed. The walk and the naive scan
both return nothing at once when some color has no edge.

edge-equation certifies every edge, not only those on copies, with one
rule per color, _equations': its label solves one linear equation in the
x = 0 values of its U parts (a row for its block value, free color j for
label = u_j - mix_j . x). A direct check_edge_equation call checks it on
every candidate vertex tuple, n^r per color. check_representation
decides _exact once; on an exact host simple, edge-counts and
edge-equation pass unrun, and on any other host they run in full, so
the witnesses are the direct calls'.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import add, and_, eq, itemgetter, mod, mul, sub

from .errors import SearchBudgetExceeded
from .hrep import Host, VKey, predicted_edges
from .linsys import NormalizedSystem
from .solutions import count_system, iter_solutions

PartIndex = list[dict[tuple[int, ...], list[int]]]
# What the walk's probe reads for an absent key: a color no edge has.
_NO_EDGE = (None, None)


def _part_index(host: Host) -> PartIndex:
    """Per free color j, each x-part key's reachable U_j vertices, ascending.

    Sorted lists make the walk yield copies in lexicographic order.
    """
    width = host.r - 1
    index: PartIndex = [{} for _ in range(host.free)]
    for key, (color, _) in host.by_key.items():
        if color < host.free:
            index[color].setdefault(key[:width], []).append(key[-1])
    for values in index:
        for vals in values.values():
            vals.sort()
    return index


def _x_prefixes(host: Host):
    """The x-part keys, one per x-tuple, in lexicographic order; x = 0 first."""
    n = host.n
    return itertools.product(*(range(t * n, (t + 1) * n) for t in range(host.r - 1)))


def _iter_per_part(host: Host, exact: bool = False):
    """The walk: one (prefix, U-tuples, per-row stored edges) batch per x-tuple.

    On an exact host (see _exact) x = 0's U_j candidates are U_j's
    admissible labels, as x = 0 shifts nothing, and every later batch is
    x = 0's translated, so none follows an empty x = 0 batch; _part_index
    runs only if the walk goes on. Nothing is yielded when some color has
    no edge.
    """
    prefixes = _x_prefixes(host)
    if exact:
        zero = next(prefixes)
        lows = range((host.r - 1) * host.n, host.k * host.n, host.n)
        index = [{zero: [lo + v for v in labels]} for lo, labels in zip(lows, host.sets_n.sets)]
        found = list(_batches(host, [zero], index))  # a batch holds every color
        yield from found
        if not found:
            return
    if set(map(itemgetter(0), host.by_key.values())).issuperset(range(host.free + host.ell)):
        yield from _batches(host, prefixes, _part_index(host))


def _batches(host: Host, prefixes, index: PartIndex):
    """The walk's nonempty batches at prefixes, over index's candidate lists.

    Each row probes every candidate U-tuple's edge once, in one
    by_key.get pipeline, and keeps the candidates whose edge has that
    row's color; stored[i] holds row i's (color, label) for each kept
    tuple. x-part keys come in lexicographic order, parts occupy ascending
    vertex ranges and each candidate list is ascending, so prefix +
    U-tuple comes out sorted.
    """
    by_key = host.by_key
    for prefix in prefixes:
        cands = [values.get(prefix) for values in index]
        if not all(cands):
            continue
        batch = list(itertools.product(*cands))
        stored: list[list] = []
        for color, xkey, get_u in host.row_keys(prefix):
            keys = map(add, repeat(xkey), map(get_u, batch))
            got = list(map(by_key.get, keys, repeat(_NO_EDGE)))
            keep = list(map(eq, map(itemgetter(0), got), repeat(color)))
            if not all(keep):
                batch = list(compress(batch, keep))
                got = list(compress(got, keep))
                stored = [list(compress(col, keep)) for col in stored]
            stored.append(got)
        if batch:
            yield prefix, batch, stored


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
    if mode == "per-part":
        return [prefix + us for prefix, batch, _ in _iter_per_part(host) for us in batch]
    n, k = host.n, host.k
    if n**k > guard:
        raise SearchBudgetExceeded(f"naive scan needs {n ** k} tuples, guard is {guard}")
    colors = host.free + host.ell
    sizes = Counter(color for color, _ in host.by_key.values())
    rarest = min(range(colors), key=sizes.__getitem__)
    if not sizes[rarest]:
        return []
    common = [set(range(k)) for _ in range(colors)]
    for key, (color, _) in host.by_key.items():
        common[color] &= {v // n for v in key}
    unavoidable = set().union(*common)
    seeded = set()
    for key in [key for key, (color, _) in host.by_key.items() if color == rarest]:
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
    """No vertex set may carry two edges: by_key's keys, compared as vertex sets, are distinct."""
    seen: dict[frozenset[int], tuple[int, int]] = {}
    for key, stored in host.by_key.items():
        verts = frozenset(key)
        if verts in seen:
            return CheckEntry(
                "simple", False, f"vertices {tuple(sorted(verts))} carry {seen[verts]} and {stored}"
            )
        seen[verts] = stored
    return CheckEntry("simple", True)


def check_edge_counts(host: Host) -> CheckEntry:
    """Each admissible label owns exactly n^(r-1) edges of its color in by_key."""
    expected = host.n ** (host.r - 1)
    total = predicted_edges(host.ns, host.sets_n)
    if len(host.by_key) != total:
        return CheckEntry("edge-counts", False, f"{len(host.by_key)} edges stored, wants {total}")
    counts = Counter(host.by_key.values())
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


def _edge_equation_tuples(host: Host) -> int:
    """The candidate tuples check_edge_equation is priced at: n^r per color.

    The guard and the report's skip rule read this figure.
    """
    return (host.free + host.ell) * host.n**host.r


def _equations(host: Host):
    """The edge equation's rule, per color, rows first.

    Yields (color, heads, closing part's vertex ids, y0 per head, lab,
    drift). A candidate tuple is a head, the off-block x values and every
    U vertex but the closing one, in product order, then a closing U
    vertex. Its label solves one equation in the x = 0 values u (value
    less shift) of the color's U columns, u_close + coefs . u + lab *
    label = rhs: a row's pivot closes and lab is its block entry; free
    color j's u_j closes, with lab -1 and rhs 0, so label = u_j - mix_j .
    x. The closing value y0 carrying label 0 is affine in the head
    values, a running sum, and y0 - lab * l carries label l. drift: some
    block x value, in no key of the color, has a nonzero slope.
    """
    ns = host.ns
    n = host.n
    width = host.r - 1
    # Per color: color, off-block x positions, U columns with the closing
    # one last, their coefficients, the label's, and rhs. A row's color is
    # its block column, and normalize makes its pivot 1.
    eqs = [
        (d, outs, (*support, m), [*map(row.__getitem__, support), 1], row[d], rhs)
        for outs, support, m, row, d, rhs in zip(
            host.coeffs.outside, ns.support, ns.pivots, ns.base.rows, ns.diag_cols, ns.base.rhs
        )
    ]
    eqs += [(j, range(width), (j,), [1], -1, 0) for j in range(host.free)]
    # Each free color's shift at each unit x-tuple.
    units = [host.shifts([p * n + (p == t) for p in range(width)]) for t in range(width)]
    for color, outs, cols, coefs, lab, rhs in eqs:
        # An x value's slope takes back the shifts of the U values.
        slopes = [-sum(map(mul, coefs, map(unit.__getitem__, cols))) % n for unit in units]
        drift = any(slope for t, slope in enumerate(slopes) if t not in outs)
        y0s = [rhs % n]
        for c in [*map(slopes.__getitem__, outs), *coefs[:-1]]:
            y0s = [(y - c * v) % n for y in y0s for v in range(n)]
        parts = (*outs, *(width + c for c in cols[:-1]))
        heads = itertools.product(*(range(p * n, p * n + n) for p in parts))
        lo = (width + cols[-1]) * n
        yield color, heads, list(range(lo, lo + n)), y0s, lab, drift


def _exact(host: Host) -> bool:
    """Is by_key exactly the edge set the edge equation predicts, and that set invariant.

    Each color predicts one edge per head and admissible label, on
    distinct keys: heads differ, and lab != 0 closes one head's labels at
    distinct vertices. So a store of n^(r-1) * sum |S| edges holding every
    predicted edge is that set. It passes edge-equation; simple, as keys
    ascend, so distinct keys hold distinct vertex sets; and edge-counts,
    as each (color, admissible label) predicts n^(r-1) distinct keys and
    no other label is predicted. The set is invariant when no color
    drifts (see _equations). Each (color, label)'s keys are built a column
    at a time, as iter_host_edges does, and probed once: len(by_key) probes.
    """
    by_key = host.by_key
    if len(by_key) != predicted_edges(host.ns, host.sets_n):
        return False
    n = host.n
    for color, heads, closing, y0s, lab, drift in _equations(host):
        if drift:
            return False
        columns = list(zip(*heads))
        for label in host.sets_n.sets[color]:
            z = -lab * label % n
            rot = closing[z:] + closing[:z]
            keys = zip(*columns, map(rot.__getitem__, y0s))
            if set(map(by_key.get, keys)) != {(color, label)}:
                return False
    return True


def check_edge_equation(host: Host, guard: int = 10**6) -> CheckEntry:
    """Edge presence must match set membership on every candidate tuple.

    One rule per color, _equations'. Each head's probes are compared with
    the color's admissibility table rotated by y0. A tuple passes when it
    carries exactly the predicted edge of the color, or none where the
    label is not admissible. Rows come first, then free colors; priced at
    (free + ell) * n^r tuples, guarded, and scanned in full.
    """
    tuples = _edge_equation_tuples(host)
    if tuples > guard:
        raise SearchBudgetExceeded(f"edge equation check needs {tuples} tuples, guard is {guard}")
    n = host.n
    by_key = host.by_key
    for color, heads, closing, y0s, lab, _ in _equations(host):
        tails = list(zip(closing))
        # Closing value y0 + z carries the label l with z = -lab * l.
        edges = [None] * n
        for label in host.sets_n.sets[color]:
            edges[-lab * label % n] = (color, label)
        for head, y0 in zip(heads, y0s):
            got = list(map(by_key.get, map(add, repeat(head), tails)))
            predicted = edges[-y0:] + edges[:-y0]
            if got == predicted:
                continue
            for y, (want, stored) in enumerate(zip(predicted, got)):
                # An edge of another color is no edge of this one.
                present = stored is not None and stored[0] == color
                if present != (want is not None) or (present and stored != want):
                    row = color - host.free
                    name = f"row {row + 1}" if row >= 0 else f"color {color + 1}"
                    label = (y0 - y) * host.ns.field.inv(lab) % n
                    return CheckEntry(
                        "edge-equation",
                        False,
                        f"{name} vertices {head + tails[y]}: membership says "
                        f"{'edge' if want else 'no edge'} with label {label}, store says {stored}",
                    )
    return CheckEntry("edge-equation", True)


class _CopyCheck:
    """Per-solution and copy-structure state, fed one x-tuple's copies at a time.

    feed takes a prefix, its U-tuples and, per row, the (color, label)
    stored on each tuple's row edge. Free-color edges are read here, once
    per (x-tuple, U vertex). A batch holding one copy of each solution
    decoded so far, every label right, passes one set comparison and is
    credited to those solutions alone through the count of full batches.
    Any other batch decodes, in one _decode call, its copies of no known
    solution and is compared again; if it still fails, the per-copy check
    tallies each copy and fixes the label witnesses. _walk_check may
    credit every x-tuple after x = 0 in one credit call.
    """

    def __init__(self, host: Host):
        ns = host.ns
        self.host = host
        self.admissible = host.sets_n.frozensets()
        diag_inv = [ns.field.inv(row[c]) for row, c in zip(ns.base.rows, ns.diag_cols)]
        self.eqs = list(zip(ns.base.rows, ns.base.rhs, ns.pivots, ns.support, diag_inv))
        self.x_parts = tuple(range(host.r - 1))
        self.structure = self.labels = ""
        # x = 0 U vertices of an admissible solution -> [solution,
        # (color, label) per color, copies credited one by one, full
        # batches before it was decoded, those x = 0 vertices].
        self.solved: dict[tuple[int, ...], list] = {}
        # Per solution, its x = 0 vertices and row (color, label)s: the set
        # a full batch must equal. Per x = 0 vertex, its free-color label.
        self.expect: set[tuple] = set()
        self.zero_label: dict[int, tuple[int, int]] = {}
        self.full = 0
        self.first = None
        self.owner: dict[tuple[int, VKey], tuple[int, ...]] = {}
        # Per free color: its U part and that part's vertex ids as
        # free-color key tails.
        n = host.n
        self.u_ranges = [
            (range(lo, lo + n), [(u,) for u in range(lo, lo + n)])
            for lo in range((host.r - 1) * n, host.k * n, n)
        ]
        # The stored (color, label) of each U vertex's free-color edge at
        # the current x-tuple, indexed by the x = 0 vertex it maps to.
        self.free_at_zero: list = [None] * (n * host.k)

    def feed(self, prefix: VKey, batch: list[VKey], stored: list[list]) -> None:
        host = self.host
        n = host.n
        by_key = host.by_key
        if len(batch[0]) != host.free or tuple(v // n for v in prefix) != self.x_parts:
            self.structure = self.structure or (
                f"copy {prefix + batch[0]} does not meet every part once"
            )
            return
        xs = tuple(v % n for v in prefix)
        # Each U vertex maps to the one its solution's copy has at x = 0:
        # the same part, shifted back by that part's shift.
        at_zero = {}
        shifts = host.shifts(prefix)
        free_at_zero = self.free_at_zero
        for (part, tails), s in zip(self.u_ranges, shifts):
            at_zero.update(zip(part, itertools.chain(part[n - s:], part[:n - s])))
            got = list(map(by_key.get, map(add, repeat(prefix), tails)))
            free_at_zero[part.start:part.stop] = got[s:] + got[:s]
        # Each copy's x = 0 vertices; a vertex in no U part stays put.
        zeros = batch  # at x = 0, or wherever every shift is 0
        if any(shifts):
            zeros = list(map(tuple, map(map, repeat(at_zero.get), batch, batch)))
        solved = self.solved
        for decode in (True, False):  # compared again after _decode
            if (
                len(batch) == len(solved)
                and list(map(free_at_zero.__getitem__, self.zero_label))
                == list(self.zero_label.values())
                and set(zip(zeros, *stored)) == self.expect
            ):
                self.credit([prefix])
                return
            if decode:
                self._decode(prefix, batch, zeros)
        diag = host.row_keys(prefix)
        first = self.first
        for us, zero, *row_got in zip(batch, zeros, *stored):
            known = solved.get(zero)
            if known is None:
                continue
            known[2] += 1
            got = list(map(free_at_zero.__getitem__, zero)) + row_got
            if got == known[1] and known is not first:
                continue
            for c, want in enumerate(known[1]):
                if got[c] != want:
                    self.labels = self.labels or (
                        f"solution {known[0]}: color {c + 1} edge missing for x={xs}"
                    )
                elif c >= host.free and known is first:
                    _, xkey, get_u = diag[c - host.free]
                    self._own(first, c, xkey + get_u(us), xs)

    def credit(self, prefixes: list[VKey]) -> None:
        """Count a full batch at each x of prefixes, claiming the first solution's row edges.

        Its copy at x has x = 0's U vertices rotated by x's shifts. Its
        keys are built a column at a time, row_keys reading columns as it
        reads vertices, and claimed at once unless one repeats or is
        claimed already; then x by x, so that the first clash is named.
        """
        host, n, first, owner = self.host, self.host.n, self.first, self.owner
        self.full += len(prefixes)
        columns = tuple(zip(*prefixes))
        xs = list(zip(*(map(mod, col, repeat(n)) for col in columns)))
        shifts = zip(*map(host.shifts, prefixes))
        us = tuple([part[(z - part.start + s) % n] for s in col]
                   for (part, _), z, col in zip(self.u_ranges, first[4], shifts))
        rows = [list(zip(repeat(c), zip(*xk, *get(us)))) for c, xk, get in host.row_keys(columns)]
        refs = list(itertools.chain(*rows))
        if len(set(refs)) == len(refs) and owner.keys().isdisjoint(refs):
            owner.update(zip(refs, xs * len(rows)))
            return
        for (at, x), row in itertools.product(enumerate(xs), rows):
            self._own(first, *row[at], x)

    def _decode(self, prefix: VKey, batch: list[VKey], zeros: list[tuple]) -> None:
        """Record the admissible solutions of the batch's copies not decoded before.

        Runs a column at a time over those copies: the part check, the
        values, each row's block column and admissibility. Row i's nonzero
        entries are its support, its pivot (1) and its block column
        free + i, solved for here, so each tuple solves every row. A copy
        that meets some part twice or recovers no admissible solution is
        left out, and the first in batch order sets the copy-structure
        witness. The new solutions are keyed by their x = 0 vertices in
        batch order, so the first is the first copy that decodes.
        """
        n = self.host.n
        fresh = [zero not in self.solved for zero in zeros]
        copies = list(compress(batch, fresh))
        if not copies:
            return
        zeros = list(compress(zeros, fresh))
        placed = [True] * len(copies)
        for (part, _), col in zip(self.u_ranges, zip(*copies)):
            # A part's ids are contiguous: a column within its bounds is placed.
            if min(col) not in part or max(col) not in part:
                placed = list(map(and_, placed, map(part.__contains__, col)))
        values = [list(map(mod, col, repeat(n))) for col in zip(*zeros)]
        for row, rhs, m_i, support, inv in self.eqs:
            acc = [rhs - v for v in values[m_i]]
            for j in support:
                acc = list(map(sub, acc, map(mul, repeat(row[j]), values[j])))
            values.append([a * inv % n for a in acc])
        member = [list(map(adm.__contains__, col)) for adm, col in zip(self.admissible, values)]
        keep = list(map(all, zip(placed, *member)))
        if not all(keep) and not self.structure:
            at = keep.index(False)
            if placed[at]:
                bad = next(c for c, col in enumerate(member) if not col[at])
                why = f"needs value {values[bad][at]} in set {bad + 1}, not admissible"
            else:
                why = "does not meet every part once"
            self.structure = f"copy {prefix + copies[at]} {why}"
        kept = list(compress(zeros, keep))
        # Color c's edge carries label values[c], as diag_cols[i] is free + i.
        wants = [list(compress(zip(repeat(c), col), keep)) for c, col in enumerate(values)]
        records = zip(compress(zip(*values), keep), map(list, zip(*wants)), repeat(0),
                      repeat(self.full), kept)
        # A solution twice in the batch keeps its first place and one record.
        self.solved.update(zip(kept, map(list, records)))
        self.expect.update(zip(kept, *wants[self.host.free:]))
        for zcol, wcol in zip(zip(*kept), wants):
            self.zero_label.update(zip(zcol, wcol))
        if kept and not self.first:
            self.first = self.solved[kept[0]]

    def _own(self, first: list, color: int, key: VKey, xs: tuple[int, ...]) -> None:
        """Claim a row edge of the first solution's copy at x; it may have no other x."""
        ref = (color, key)
        prev = self.owner.setdefault(ref, xs)
        if prev != xs:
            self.labels = self.labels or (
                f"solution {first[0]}: edge {ref} shared by x={prev} and x={xs}"
            )

    def entries(self, solutions: int) -> tuple[CheckEntry, CheckEntry]:
        host = self.host
        expected = host.n ** (host.r - 1)
        tally = {sol: count + self.full - base for sol, _, count, base, _ in self.solved.values()}
        labels = self.labels
        short = min((s for s, k in tally.items() if k != expected), default=None)
        if not labels and short is not None:
            labels = f"solution {short} spans {tally[short]} copies, wants {expected}"
        elif not labels and len(tally) != solutions:  # the only walk over solutions
            missing = next((s for s in iter_solutions(host.ns, host.sets) if s not in tally), None)
            labels = f"solution {missing} spans 0 copies, wants {expected}"
        return (
            CheckEntry("per-solution", not labels, labels),
            CheckEntry("copy-structure", not self.structure, self.structure),
        )


def _walk_check(
    host: Host, solutions: int, exact: bool
) -> tuple[int, tuple[CheckEntry, CheckEntry]]:
    """The walk's copies fed to the copy check; the copies, and its two entries.

    On an exact host by_key is the predicted set, and each x-translation
    maps it onto itself. If x = 0's batch then decodes one solution per
    copy with no witness, each later x-tuple's is its translate, a full
    batch, and one credit counts them all; else all are walked, as
    check_copies would.
    """
    check = _CopyCheck(host)
    copies = 0
    prefixes = _x_prefixes(host)
    zero = next(prefixes)
    for prefix, batch, stored in _iter_per_part(host, exact):
        check.feed(prefix, batch, stored)
        copies += len(batch)
        clean = copies == len(check.solved) and not (check.structure or check.labels)
        if prefix == zero and clean and exact:
            check.credit(list(prefixes))
            return copies * host.n ** (host.r - 1), check.entries(solutions)
    return copies, check.entries(solutions)


def _listed_batches(host: Host, copies):
    """Cut a copy iterable into the copy check's batches.

    A batch is a run of copies sharing their x-part prefix and their
    length, so that the check can read it a column at a time; its row
    edges are read here. A copy without one vertex per part fails its
    part check before any row edge of it would be read.
    """
    width = host.r - 1
    by_key = host.by_key
    for (prefix, size), group in itertools.groupby(copies, lambda vkey: (vkey[:width], len(vkey))):
        batch = [vkey[width:] for vkey in group]
        if size == host.k:
            stored = [
                list(map(by_key.get, map(add, repeat(xkey), map(get_u, batch))))
                for _, xkey, get_u in host.row_keys(prefix)
            ]
        else:
            stored = [[None] * len(batch) for _ in range(host.ell)]
        yield prefix, batch, stored


def check_copies(host: Host, copies, solutions: int) -> tuple[CheckEntry, CheckEntry]:
    """Per-solution and copy-structure entries from one pass over the copies.

    Copies recovering no admissible solution fail copy-structure and stay
    out of the per-solution tallies, which the module docstring explains.
    copies may come in any order; sorted copies pay the x-part work once
    per x-tuple.
    """
    check = _CopyCheck(host)
    for prefix, batch, stored in _listed_batches(host, copies):
        check.feed(prefix, batch, stored)
    return check.entries(solutions)


def check_representation(
    host: Host,
    mode: str = "per-part",
    guard: int = 10**6,
) -> VerificationReport:
    """Run the full check battery and collect a printable report.

    guard bounds the naive copy scan; the edge-equation check is left out
    of the entries, and recorded in skipped with its tuple count, when
    that count exceeds it. _exact, decided once and unguarded, is the
    one answer about the store: on an exact host simple, edge-counts and
    edge-equation pass unrun and the walk credits every x-tuple after
    x = 0; any other host gets the three checks as direct calls run them.
    """
    exact = _exact(host)
    report = VerificationReport()
    for name, check in (("simple", check_simple), ("edge-counts", check_edge_counts)):
        report.entries.append(CheckEntry(name, True) if exact else check(host))
    # The walk's batches go straight to the copy check; no copy list.
    listed = None if mode == "per-part" else enumerate_copies(host, mode=mode, guard=guard)
    solutions = count_system(host.ns.base, host.sets_n)
    if listed is None:
        copies, copy_entries = _walk_check(host, solutions, exact)
    else:
        copies, copy_entries = len(listed), check_copies(host, listed, solutions)
    expected = solutions * host.n ** (host.r - 1)
    entry = CheckEntry("copy-count", copies == expected)
    if not entry.passed:
        entry.witness = f"{copies} copies, wants {expected}"
    report.entries.append(entry)
    report.entries.extend(copy_entries)
    tuples = _edge_equation_tuples(host)
    if tuples <= guard:
        entry = CheckEntry("edge-equation", True) if exact else check_edge_equation(host, guard)
        report.entries.append(entry)
    else:
        report.skipped.append(("edge-equation", tuples))
    report.edges = len(host.by_key)
    report.solutions = solutions
    report.copies = copies
    return report
