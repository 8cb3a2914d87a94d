"""Linear systems over prime fields: data model, file format, normalization.

A system is ell equations in p unknowns (1 <= ell < p) with full row rank,
together with one admissible-value set per unknown. Normalization permutes
an independent column set to the back, turns that block into a diagonal,
and scales every row so its rightmost free-column entry (the pivot) is 1.
All indices in code are 0-based; user-facing text is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyW, InvariantViolation, NoFreeColumns, ParseError, RankDeficient
from .field import PrimeField, next_prime_above

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# Exact Gaussian elimination (list-of-lists, canonical residues).


def _rref(fld: PrimeField, rows: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns, left to right.

    Stops once every row holds a pivot, so the columns right of the last
    pivot are reduced but never scanned.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        if len(pivots) == len(m):
            break
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = fld.inv(m[rank][col])
        m[rank] = [fld.mul(inv, v) for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [fld.sub(a, fld.mul(c, b)) for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return m, pivots


def mat_rank(fld: PrimeField, rows: Sequence[Sequence[int]]) -> int:
    return len(_rref(fld, rows)[1])


def mat_vec(fld: PrimeField, rows: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) % fld.q for row in rows]


# ---------------------------------------------------------------------------
# Data model.


@dataclass(frozen=True)
class SetFamily:
    """One admissible-value set per unknown, as sorted residue tuples."""

    field: PrimeField
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, fld: PrimeField, sets: Iterable[Iterable[int]]) -> "SetFamily":
        canon = []
        for s in sets:
            reduced = sorted({fld.element(v) for v in s})
            canon.append(tuple(reduced))
        return cls(fld, tuple(canon))

    @classmethod
    def full(cls, fld: PrimeField, p: int) -> "SetFamily":
        everything = tuple(range(fld.q))
        return cls(fld, tuple(everything for _ in range(p)))

    @property
    def p(self) -> int:
        return len(self.sets)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

    def total_size(self) -> int:
        return sum(len(s) for s in self.sets)

    def frozensets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(s) for s in self.sets)

    def with_removed(self, removals: Sequence[Iterable[int]]) -> "SetFamily":
        """New family with removals[i] taken out of set i."""
        out = []
        for s, gone in zip(self.sets, removals):
            dead = set(gone)
            out.append(tuple(v for v in s if v not in dead))
        return SetFamily(self.field, tuple(out))

    def replace(self, idx: int, values: Iterable[int]) -> "SetFamily":
        new = list(self.sets)
        new[idx] = tuple(sorted(set(values)))
        return SetFamily(self.field, tuple(new))


@dataclass(frozen=True)
class LinearSystem:
    """ell independent equations in p unknowns over a prime field."""

    field: PrimeField
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]

    @classmethod
    def make(cls, fld: PrimeField, rows: Iterable[Iterable[int]], rhs: Iterable[int]) -> "LinearSystem":
        canon_rows = tuple(tuple(fld.element(v) for v in row) for row in rows)
        canon_rhs = tuple(fld.element(v) for v in rhs)
        return cls(fld, canon_rows, canon_rhs)

    def __post_init__(self):
        ell = len(self.rows)
        if ell == 0 or len(self.rhs) != ell:
            raise ValueError("row/rhs shape mismatch")
        p = len(self.rows[0])
        if any(len(r) != p for r in self.rows):
            raise ValueError("ragged matrix")
        if not 1 <= ell < p:
            raise ValueError(f"need 1 <= ell < p, got ell={ell} p={p}")
        if mat_rank(self.field, self.rows) != ell:
            raise RankDeficient(f"rank below {ell}")

    @property
    def ell(self) -> int:
        return len(self.rows)

    @property
    def p(self) -> int:
        return len(self.rows[0])

    def is_solution(self, x: Sequence[int]) -> bool:
        return mat_vec(self.field, self.rows, x) == list(self.rhs)


@dataclass(frozen=True)
class NormalizedSystem:
    """A system in pivot form plus the structure read off its rows.

    base        the transformed system (block columns diagonal, pivots 1)
    perm        perm[j] = original column of normalized column j
    pivots      per row, the rightmost nonzero free-column index
    support     per row, the nonzero free columns left of the pivot
    diag_cols   per row, its block-column index (free_count + row)
    blocks      per row, the slice of template x-positions assigned to it
    """

    base: LinearSystem
    perm: tuple[int, ...]
    pivots: tuple[int, ...]
    support: tuple[tuple[int, ...], ...]
    diag_cols: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def field(self) -> PrimeField:
        return self.base.field

    @property
    def ell(self) -> int:
        return self.base.ell

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def free_count(self) -> int:
        return self.base.p - self.base.ell

    @property
    def uniformity(self) -> int:
        """Edge size r of the copy template: one more than total support."""
        return 1 + sum(len(w) for w in self.support)

    @property
    def vertex_count(self) -> int:
        return self.uniformity - 1 + self.free_count

    def permute_family(self, sets: SetFamily) -> SetFamily:
        """Reorder a family from original into normalized column order."""
        return SetFamily(sets.field, tuple(sets.sets[j] for j in self.perm))


def block_identity(sys: LinearSystem) -> tuple[Matrix, list[int], list[int]]:
    """Permute an independent column set to the back and reduce it to I.

    The block is the greedy right-to-left choice of independent columns,
    so an already-normalized system keeps its own block. Returns (rows,
    rhs, perm) with perm[j] = original column of column j; every solution
    has x_block[i] = rhs[i] - sum of rows[i][j]*x_j over the free columns.
    """
    p = sys.p
    # The pivots of the column-reversed matrix are that greedy block, and
    # its reduced rows are B^-1 A up to reversing rows and columns back.
    # Full rank puts all ell pivots left of the rhs column.
    reduced, pivots = _rref(sys.field, [row[::-1] + (b,) for row, b in zip(sys.rows, sys.rhs)])
    block = sorted(p - 1 - c for c in pivots)
    in_block = set(block)
    perm = [j for j in range(p) if j not in in_block] + block
    rows = [[row[p - 1 - j] for j in perm] for row in reversed(reduced)]
    rhs = [row[p] for row in reversed(reduced)]
    return rows, rhs, perm


def normalize(sys: LinearSystem) -> NormalizedSystem:
    """Bring a full-rank system into pivot form.

    Every row must keep at least one nonzero free entry besides its
    pivot, as the hypergraph encoding needs; rows that fail raise EmptyW,
    and reduce_degenerate strips the pinned and folded ones. Idempotent:
    normalizing an already-normalized system returns it unchanged.
    """
    fld = sys.field
    rows, rhs, perm = block_identity(sys)
    free = sys.p - sys.ell
    pivots = []
    support = []
    for i, row in enumerate(rows):
        nz = [j for j in range(free) if row[j]]
        if not nz:
            raise NoFreeColumns(f"row {i + 1} has no nonzero free-column entry")
        m_i = nz[-1]
        w_i = tuple(nz[:-1])
        if not w_i:
            raise EmptyW(
                f"row {i + 1} has a bare pivot; the hypergraph encoding needs"
                " a support column in every row"
            )
        inv = fld.inv(row[m_i])
        rows[i] = [fld.mul(inv, v) for v in row]
        rhs[i] = fld.mul(inv, rhs[i])
        pivots.append(m_i)
        support.append(w_i)
    blocks = []
    start = 0
    for w in support:
        blocks.append(tuple(range(start, start + len(w))))
        start += len(w)
    base = LinearSystem(fld, tuple(tuple(r) for r in rows), tuple(rhs))
    return NormalizedSystem(
        base=base,
        perm=tuple(perm),
        pivots=tuple(pivots),
        support=tuple(support),
        diag_cols=tuple(free + i for i in range(sys.ell)),
        blocks=tuple(blocks),
    )


# ---------------------------------------------------------------------------
# Degenerate-row reduction.


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reduce_degenerate.

    kind is one of:
      reduced        every remaining row has >= 3 nonzero entries
      two_var        a single equation with exactly two nonzero entries
      unconstrained  no equations remain; every tuple in the sets solves
      empty          a pinned value was outside its set; no solutions

    dropped holds one (column, rhs, terms) per stripped row, in input
    columns and strip order: the row reads x_column = rhs - sum of c*x_j
    over its terms, at most one (kept column j, c). For kind empty it
    ends with the pin whose value is outside its set.
    """

    kind: str
    system: LinearSystem | None
    sets: SetFamily | None
    kept_columns: tuple[int, ...]
    dropped: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]

    def lift(self, solution: Sequence[int]) -> tuple[int, ...]:
        """Extend a reduced solution (over kept_columns) to all columns."""
        q = self.sets.field.q
        values = dict(zip(self.kept_columns, solution))
        for column, rhs, terms in self.dropped:
            values[column] = (rhs - sum(c * values[j] for j, c in terms)) % q
        return tuple(values[j] for j in range(len(values)))


def reduce_degenerate(sys: LinearSystem, sets: SetFamily) -> ReductionResult:
    """Strip the rows with fewer than two free nonzeros, in one pass.

    In block-identity form every row has one block entry, its own, so
    deleting a row with its block column leaves every other row as it
    was, and the row gives its block unknown as rhs minus its free terms.
    A row with no free nonzero pins its block unknown, a row with one
    ties it to that free unknown, whose set keeps the values that send
    the block unknown into its own set; any other row is long. Pins go
    first, then folds, each in row order; solution counts are preserved
    exactly and lift back-substitutes the dropped rows. With no long row
    the last fold stays, a single equation with two nonzero entries,
    flagged two_var.
    """
    fld = sys.field
    rows, rhs, perm = block_identity(sys)
    free = sys.p - sys.ell
    nz = [[j for j in range(free) if row[j]] for row in rows]
    pins = [i for i in range(sys.ell) if not nz[i]]
    folds = [i for i in range(sys.ell) if len(nz[i]) == 1]
    stay = [i for i in range(sys.ell) if len(nz[i]) > 1] or folds[-1:]
    cur = list(sets.sets)
    dropped = []
    for i in pins + [i for i in folds if i not in stay]:
        if [j for j in range(free, sys.p) if rows[i][j]] != [free + i] or rows[i][free + i] != 1:
            raise InvariantViolation(f"degenerate row {rows[i]} is not its own unit block entry")
        column = perm[free + i]
        terms = tuple((perm[j], rows[i][j]) for j in nz[i])
        dropped.append((column, rhs[i], terms))
        allowed = set(cur[column])
        if not terms:
            if rhs[i] not in allowed:
                return ReductionResult("empty", None, None, (), tuple(dropped))
            continue
        ((j, c),) = terms
        cur[j] = tuple(v for v in cur[j] if (rhs[i] - c * v) % fld.q in allowed)
    cols = sorted([*range(free), *(free + i for i in stay)], key=perm.__getitem__)
    kept = tuple(perm[j] for j in cols)
    out_sets = SetFamily(fld, tuple(cur[j] for j in kept))
    if not stay:
        return ReductionResult("unconstrained", None, out_sets, kept, tuple(dropped))
    system = LinearSystem(
        fld, tuple(tuple(rows[i][j] for j in cols) for i in stay), tuple(rhs[i] for i in stay)
    )
    kind = "two_var" if len(nz[stay[0]]) == 1 else "reduced"
    return ReductionResult(kind, system, out_sets, kept, tuple(dropped))


# ---------------------------------------------------------------------------
# System file format.


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_system(text: str) -> tuple[LinearSystem, SetFamily]:
    """Parse the line-oriented system format.

        field <q>
        system <ell> <p>
        <ell rows of p signed integers>
        rhs <ell signed integers>
        <p lines: `set all` or `set v1,v2,...` or bare `set` for empty>

    '#' starts a comment; blank lines are skipped. Entries are reduced
    mod q; a set listing the same residue twice is rejected.
    """
    items = [(no, _strip(raw)) for no, raw in enumerate(text.splitlines(), start=1)]
    items = [(no, line) for no, line in items if line]
    pos = 0

    def take(what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(items):
            raise ParseError(f"line {items[-1][0] if items else 0}: unexpected end of file, wanted {what}")
        no, line = items[pos]
        pos += 1
        return no, line.split()

    no, toks = take("field header")
    if len(toks) != 2 or toks[0] != "field":
        raise ParseError(f"line {no}: expected 'field <q>'")
    try:
        q = int(toks[1])
    except ValueError:
        raise ParseError(f"line {no}: modulus must be an integer") from None
    fld = PrimeField(q)

    no, toks = take("system header")
    if len(toks) != 3 or toks[0] != "system":
        raise ParseError(f"line {no}: expected 'system <ell> <p>'")
    try:
        ell, p = int(toks[1]), int(toks[2])
    except ValueError:
        raise ParseError(f"line {no}: system dimensions must be integers") from None
    if not 1 <= ell < p:
        raise ParseError(f"line {no}: need 1 <= ell < p, got ell={ell} p={p}")

    rows = []
    for _ in range(ell):
        no, toks = take("matrix row")
        if len(toks) != p:
            raise ParseError(f"line {no}: expected {p} entries, got {len(toks)}")
        try:
            rows.append([int(t) for t in toks])
        except ValueError:
            raise ParseError(f"line {no}: matrix entries must be integers") from None

    no, toks = take("rhs")
    if not toks or toks[0] != "rhs" or len(toks) != ell + 1:
        raise ParseError(f"line {no}: expected 'rhs' followed by {ell} integers")
    try:
        rhs = [int(t) for t in toks[1:]]
    except ValueError:
        raise ParseError(f"line {no}: rhs entries must be integers") from None

    families = []
    for _ in range(p):
        no, toks = take("set line")
        if not toks or toks[0] != "set" or len(toks) > 2:
            raise ParseError(f"line {no}: expected 'set all', 'set v1,v2,...' or bare 'set'")
        if len(toks) == 1:
            families.append(())
            continue
        if toks[1] == "all":
            families.append(tuple(range(q)))
            continue
        try:
            vals = [int(t) for t in toks[1].split(",")]
        except ValueError:
            raise ParseError(f"line {no}: set values must be integers") from None
        reduced = [fld.element(v) for v in vals]
        if len(set(reduced)) != len(reduced):
            raise ParseError(f"line {no}: duplicate value after reduction mod {q}")
        families.append(tuple(sorted(reduced)))

    if pos != len(items):
        raise ParseError(f"line {items[pos][0]}: trailing content")
    return LinearSystem.make(fld, rows, rhs), SetFamily(fld, tuple(families))


def format_system(sys: LinearSystem, sets: SetFamily) -> str:
    """Inverse of parse_system, byte-stable for canonical inputs."""
    q = sys.field.q
    lines = [f"field {q}", f"system {sys.ell} {sys.p}"]
    lines += [" ".join(str(v) for v in row) for row in sys.rows]
    lines.append("rhs " + " ".join(str(v) for v in sys.rhs))
    for s in sets.sets:
        if len(s) == q:
            lines.append("set all")
        elif not s:
            lines.append("set")
        else:
            lines.append("set " + ",".join(str(v) for v in s))
    return "\n".join(lines) + "\n"


def from_integer_system(
    int_rows: Sequence[Sequence[int]], int_rhs: Sequence[int], n: int
) -> tuple[PrimeField, LinearSystem]:
    """Embed an integer system into a prime field that is collision-free.

    For admissible values drawn from 1..n, any integer solution and any
    field solution coincide once q exceeds the largest possible row value,
    which c*p*p*n bounds (c = largest absolute entry).
    """
    p = len(int_rows[0])
    c = max(max(abs(v) for row in int_rows for v in row), max((abs(v) for v in int_rhs), default=0), 1)
    q = next_prime_above(c * p * p * n)
    fld = PrimeField(q)
    return fld, LinearSystem.make(fld, int_rows, int_rhs)
