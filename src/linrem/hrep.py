"""Colored hypergraph encoding of a constrained linear system.

The host has one vertex part per template x-position (r-1 parts named
V1..V{r-1}) and one per free column (parts U1..U{p-ell}), each a copy of
the field. Color j < p-ell edges join every x-tuple to one U_j vertex per
admissible label; color p-ell+i edges encode row i's equation. Every
admissible solution then spans n^(r-1) pairwise edge-disjoint colored
copies of a fixed template, and nothing else does.

Vertex ids are part*n + value, so tuples built in part order are already
sorted and double as canonical edge keys. A built host keeps one store,
by_key, each key's (color, label) in stream order; checks derive the rest.

The edge stream works a column at a time from host_plans, which lays out
each color's head parts and offsets and certifies, from the label shifts
alone, that no key repeats; each admissible label's batch zips the head
columns with the closing part's ids, rotated by the label's shift.

A copy is its sorted vertex tuple, one vertex per part: x parts first,
then U parts. Host.copy_edges reads a copy's edge keys off that tuple,
and Host.row_keys, which it uses, is the one place that knows how a row
color's key is laid out; copies_for_solution, the verifier's walk and
its copy check all read row edges through it. Host.shifts, beside it,
owns the x-translation mix_j . x; only the host's construction reads mix
itself. The naive oracle reads neither method nor the coefficient tables.

export_edges writes one `color label part:value ...` line per streamed or
stored edge; parse_host_export reads such lines back into edge references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter, mul

from .errors import EdgeNotInHost, InvariantViolation, MissingEdge, ParseError, SimplicityViolation
from .linsys import NormalizedSystem, SetFamily, mat_rank

VKey = tuple[int, ...]
EdgeRef = tuple[int, VKey]


@dataclass(frozen=True)
class CoefficientTables:
    """Linear data driving edge placement.

    mix[j] turns an x-tuple into the U_j vertex: vertex = label + mix[j].x.
    closing[i] holds, per x-position outside row i's block, the coefficient
    used when locating the color-(free+i) edge's pivot-part vertex.
    sep[i] is nonsingular and maps x to the non-label vertices of that
    edge, which is what keeps the copies of one solution edge-disjoint.
    """

    mix: tuple[tuple[int, ...], ...]
    sep: tuple[tuple[tuple[int, ...], ...], ...]
    outside: tuple[tuple[int, ...], ...]
    closing: tuple[tuple[int, ...], ...]


def build_coefficients(ns: NormalizedSystem) -> CoefficientTables:
    fld = ns.field
    free = ns.free_count
    width = ns.uniformity - 1
    mix = [[0] * width for _ in range(free)]
    for i in range(ns.ell):
        m_i = ns.pivots[i]
        row = ns.base.rows[i]
        for g, t in enumerate(ns.blocks[i]):
            j_g = ns.support[i][g]
            mix[j_g][t] = 1
            mix[m_i][t] = fld.neg(row[j_g])
    # The support columns must cancel the pivot contribution exactly.
    for i in range(ns.ell):
        row = ns.base.rows[i]
        for g, t in enumerate(ns.blocks[i]):
            s = sum(mix[j][t] * row[j] for j in ns.support[i]) % fld.q
            if not s == row[ns.support[i][g]] == fld.neg(mix[ns.pivots[i]][t]):
                raise InvariantViolation(f"row {i + 1}: support does not cancel x{t + 1}")
    sep = []
    outside = []
    closing = []
    for i in range(ns.ell):
        block = set(ns.blocks[i])
        mat = []
        for t in range(width):
            if t in block:
                g = ns.blocks[i].index(t)
                mat.append(tuple(mix[ns.support[i][g]]))
            else:
                mat.append(tuple(1 if c == t else 0 for c in range(width)))
        if mat_rank(fld, mat) < width:
            raise InvariantViolation(f"row {i + 1}: separation matrix is singular")
        sep.append(tuple(mat))
        outs = tuple(t for t in range(width) if t not in block)
        outside.append(outs)
        row = ns.base.rows[i]
        closing.append(
            tuple(
                (mix[ns.pivots[i]][t] + sum(mix[j][t] * row[j] for j in ns.support[i])) % fld.q
                for t in outs
            )
        )
    return CoefficientTables(
        mix=tuple(tuple(r) for r in mix),
        sep=tuple(sep),
        outside=tuple(outside),
        closing=tuple(closing),
    )


class Host:
    """Materialized edge store: by_key maps each vertex key to its (color, label).

    A dict holds one value per key, so no key carries two edges, and it
    keeps insertion order, so by_key.items() is the edge list in
    iter_host_edges order.
    """

    def __init__(self, ns: NormalizedSystem, coeffs: CoefficientTables, sets: SetFamily):
        self.ns = ns
        self.coeffs = coeffs
        self.sets = sets
        self.sets_n = ns.permute_family(sets)
        self.n = ns.field.q
        self.r = ns.uniformity
        self.k = ns.vertex_count
        self.free = ns.free_count
        self.ell = ns.ell
        self.by_key: dict[VKey, tuple[int, int]] = {}
        self._rows = tuple(
            (self.free + i, coeffs.outside[i], itemgetter(*ns.support[i], ns.pivots[i]))
            for i in range(self.ell)
        )

    @property
    def records(self) -> tuple[tuple[int, int, VKey], ...]:
        """The edges as (color, label, vertex key), derived from by_key; read-only."""
        return tuple((color, label, key) for key, (color, label) in self.by_key.items())

    def row_keys(self, prefix: VKey) -> list[tuple[int, VKey, itemgetter]]:
        """Per row i, how a copy with x-part key prefix reads its color-(free+i) edge.

        Each entry is (color, the x-part key's vertices outside row i's
        block, getter of the support then pivot vertices from the copy's
        U-part vertices). The edge key is that x-part key followed by the
        getter's tuple; normalize leaves every row a support column, so
        it is a tuple.
        """
        return [(color, tuple(map(prefix.__getitem__, outs)), get) for color, outs, get in self._rows]

    def shifts(self, prefix: VKey) -> list[int]:
        """Per free color j, mix_j . x mod n for the x-tuple x with x-part key prefix.

        A copy's U_j value at x is its x = 0 value plus shifts[j], mod n.
        Part t's ids are t*n + value, so dot products over ids agree mod n.
        """
        return [sum(map(mul, a, prefix)) % self.n for a in self.coeffs.mix]

    def copy_edges(self, copies) -> list[tuple[EdgeRef, ...]]:
        """Each copy's (color, vertex key) edges: free colors ascending, then the rows.

        A copy is a sorted vertex tuple with one vertex per part; any
        other tuple raises ValueError.
        """
        n, parts = self.n, tuple(range(self.k))
        out = []
        for copy in copies:
            if tuple(v // n for v in copy) != parts:
                raise ValueError(f"copy {copy} does not meet every part once")
            out.append(self._edges(copy))
        return out

    def _edges(self, copy: VKey) -> tuple[EdgeRef, ...]:
        """copy_edges for one copy already known to meet every part once."""
        prefix, us = copy[: self.r - 1], copy[self.r - 1 :]
        return tuple((j, prefix + (u,)) for j, u in enumerate(us)) + tuple(
            (color, xkey + get_u(us)) for color, xkey, get_u in self.row_keys(prefix)
        )


def predicted_edges(ns: NormalizedSystem, sets: SetFamily) -> int:
    """The host's edge count: n^(r-1) per admissible label of sets."""
    return ns.field.q ** (ns.uniformity - 1) * sets.total_size()


def host_plans(ns: NormalizedSystem, coeffs: CoefficientTables, sets_n: SetFamily) -> list[tuple]:
    """Per color, (head parts, offset coefficients, closing part, label column,
    base, step), certified to lay out no key twice: a label's keys close each
    head at its offset plus the label's shift (base + step*label) mod n, so
    keys of one color meet only where two labels share a shift (the later
    label's first key is named), and keys of two colors only where both hold
    the same parts in the same order, which normalize never lays out.
    """
    n = ns.field.q
    width = ns.uniformity - 1
    rows = ns.base.rows
    parts = [list(range(t * n, (t + 1) * n)) for t in range(width + ns.free_count)]
    plans = [(parts[:width], coeffs.mix[j], parts[width + j], j, 0, 1) for j in range(ns.free_count)]
    for i, (d, support) in enumerate(zip(ns.diag_cols, ns.support)):
        heads = [parts[t] for t in coeffs.outside[i]] + [parts[width + j] for j in support]
        coefs = coeffs.closing[i] + tuple(-rows[i][j] for j in support)
        plans.append((heads, coefs, parts[width + ns.pivots[i]], d, ns.base.rhs[i], -rows[i][d]))
    firsts = [tuple(part[0] for part in heads) + (cpart[0],) for heads, _, cpart, *_ in plans]
    for color, (_, _, cpart, col, base, step) in enumerate(plans):
        other = firsts.index(firsts[color])
        if other < color:
            raise InvariantViolation(f"colors {other + 1} and {color + 1} key the same parts")
        shifts: dict[int, int] = {}
        for label in sets_n.sets[col]:
            shift = (base + step * label) % n
            if shift in shifts:
                key = firsts[color][:-1] + (cpart[shift],)
                raise SimplicityViolation(f"edge {key} carries both {(color, shifts[shift])} and {(color, label)}")
            shifts[shift] = label
    return plans


def iter_host_edges(ns: NormalizedSystem, coeffs: CoefficientTables, sets_n: SetFamily):
    """Generate the edges as one (color, label, vertex keys) batch per label.

    Streaming form of the host; build_host materializes it. Colors ascend,
    labels ascend within a color, vertex tuples ascend within a batch, and
    no key repeats: host_plans certifies that before the first batch. Each
    batch zips the head columns with the closing part's ids at the heads'
    offsets (coefs . head mod n over vertex ids), rotated by the label's shift.
    """
    n = ns.field.q
    for color, (heads, coefs, cpart, col, base, step) in enumerate(host_plans(ns, coeffs, sets_n)):
        columns = list(zip(*itertools.product(*heads)))
        offsets = [0]
        for c, part in zip(coefs, heads):
            offsets = [(o + c * v) % n for o in offsets for v in part]
        for label in sets_n.sets[col]:
            shift = (base + step * label) % n
            rot = cpart[shift:] + cpart[:shift]
            yield color, label, list(zip(*columns, map(rot.__getitem__, offsets)))


def build_host(ns: NormalizedSystem, coeffs: CoefficientTables, sets: SetFamily) -> Host:
    """Materialize the edge store of a family in original order; its stream repeats no key."""
    host = Host(ns, coeffs, sets)
    for color, label, keys in iter_host_edges(ns, coeffs, host.sets_n):
        host.by_key.update(zip(keys, itertools.repeat((color, label))))
    return host


def copies_for_solution(host: Host, solution: tuple[int, ...]) -> list[VKey]:
    """The n^(r-1) copies a full normalized-order solution spans, x ascending.

    Raises MissingEdge if any expected edge is absent or carries the wrong
    color or label, so a successful return certifies the copy family.
    """
    n = host.n
    width = host.r - 1
    out = []
    for xs in itertools.product(range(n), repeat=width):
        prefix = tuple(t * n + x for t, x in enumerate(xs))
        copy = prefix + tuple(
            (width + j) * n + (u + s) % n
            for j, (u, s) in enumerate(zip(solution[: host.free], host.shifts(prefix)))
        )
        for color, key in host._edges(copy):
            if host.by_key.get(key) != (color, solution[color]):
                raise MissingEdge(f"color {color + 1} edge missing for x={xs}")
        out.append(copy)
    return out


# ---------------------------------------------------------------------------
# Host export format: one line per edge, lexicographically sorted.


def export_edges(ns: NormalizedSystem, batches) -> str:
    """(color, label, keys) batches as sorted `color label part:value ...` lines.

    A batch's keys share one length and are named a column at a time.
    """
    parts = [f"V{t + 1}" for t in range(ns.uniformity - 1)] + [f"U{j + 1}" for j in range(ns.free_count)]
    names = [f"{part}:{v}" for part in parts for v in range(ns.field.q)]
    lines: list[str] = []
    for color, label, keys in batches:
        columns = [map(names.__getitem__, col) for col in zip(*keys)]
        if columns:  # zip over the head alone would never stop
            lines.extend(map(" ".join, zip(itertools.repeat(f"{color + 1} {label}"), *columns)))
    return "\n".join(sorted(lines)) + "\n"


def export_host(host: Host) -> str:
    """export_edges over by_key's runs of one color, label and key length, as stored."""
    runs = itertools.groupby(host.by_key.items(), itemgetter(1))
    lengths = ((ref, itertools.groupby(map(itemgetter(0), run), len)) for ref, run in runs)
    return export_edges(host.ns, ((*ref, keys) for ref, by_len in lengths for _, keys in by_len))


def parse_host_export(host: Host, text: str) -> list[EdgeRef]:
    """Read export lines back into (color, vertex key) references of host.

    Every line is parsed before any is looked up, so a malformed line is
    reported ahead of a foreign edge. A line whose color, vertices or
    label do not name a stored edge raises EdgeNotInHost, or ParseError
    for a vertex outside its part.
    """
    parsed = []
    for no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        toks = raw.split()
        if len(toks) < 3:
            raise ParseError(f"line {no}: expected 'color label part:vertex ...'")
        try:
            color, label = int(toks[0]), int(toks[1])
            verts = []
            for t in toks[2:]:
                name, val = t.split(":")
                if name[:1] not in ("V", "U") or not name[1:].isdecimal():
                    raise ValueError
                verts.append((name, int(val)))
        except ValueError:
            raise ParseError(f"line {no}: malformed edge line") from None
        parsed.append((color, label, verts))
    n = host.n
    width = host.r - 1
    refs = []
    for color, label, verts in parsed:
        if not 1 <= color <= host.free + host.ell:
            raise EdgeNotInHost(f"color {color} out of range")
        ids = []
        for name, val in verts:
            index = int(name[1:])
            count, first = (width, 0) if name[0] == "V" else (host.free, width)
            if not (1 <= index <= count and 0 <= val < n):
                raise ParseError(f"vertex {name}:{val} out of range")
            ids.append((first + index - 1) * n + val)
        key = tuple(sorted(ids))
        if host.by_key.get(key) != (color - 1, label):
            raise EdgeNotInHost(f"no color-{color} edge labeled {label} on {key}")
        refs.append((color - 1, key))
    return refs
