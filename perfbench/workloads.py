"""Seeded operation lists for the three workloads.

Every operation is a plain dict: the `linrem` argv (or a library route),
the exit code it must return, a deadline, and the reference values its
output is checked against. Reference values come from `oracle` and are
computed here, before anything is timed. Shapes (field, unknowns, set
sizes) are fixed per slot so that every seed asks for about the same
work; the seed draws coefficients, right-hand sides and set contents,
except for the heaviest count-remove operations (see count_remove).
"""

from __future__ import annotations

import os
import random

import oracle

DEADLINE_S = 10.0
PROBE_DEADLINE_S = 1.0
CLI_LIFT_GUARD = 500

DEFECT_GUARD = "ROADMAP item 2: structured count ignores --guard"
DEFECT_TWO_VAR = "ROADMAP item 3: removal on two-variable residuals is not minimal"

WORKLOADS = ("encode-verify", "count-remove", "behrend-lift")


class Draw:
    """Random coefficients and set contents from one stream."""

    def __init__(self, key):
        self.rng = random.Random(key)

    def subset(self, q, size):
        return sorted(self.rng.sample(range(q), size))

    def nonzero(self, q, count):
        return [self.rng.randrange(1, q) for _ in range(count)]


class Builder(Draw):
    """Writes system files into the work directory and collects operations."""

    def __init__(self, workload, seed, workdir, root):
        super().__init__(f"{workload}:{seed}")
        self.workdir = workdir
        self.root = root
        self.ops: list[dict] = []
        self.files: list[str] = []

    def write(self, stem, q, rows, rhs, sets):
        lines = [f"field {q}", f"system {len(rows)} {len(rows[0])}"]
        lines += [" ".join(str(v) for v in row) for row in rows]
        lines.append("rhs " + " ".join(str(v) for v in rhs))
        for s in sets:
            if len(s) == q:
                lines.append("set all")
            elif not s:
                lines.append("set")
            else:
                lines.append("set " + ",".join(str(v) for v in sorted(s)))
        path = os.path.join(self.workdir, f"{len(self.files):02d}-{stem}.sys")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.files.append(path)
        return path

    def bundled(self, name):
        """Copy a bundled system file and return (path, q, rows, rhs, sets)."""
        with open(os.path.join(self.root, "systems", name), encoding="utf-8") as fh:
            text = fh.read()
        q, rows, rhs, sets = read_system(text)
        return self.write(name[:-4], q, rows, rhs, sets), q, rows, rhs, sets

    def add(self, name, check, argv=None, *, exit=0, expect=None, deadline=DEADLINE_S,
            owner, defect=None, kind="cli", **extra):
        op = {
            "id": f"{len(self.ops):03d}",
            "name": name,
            "kind": kind,
            "argv": argv,
            "exit": exit,
            "check": check,
            "expect": expect or {},
            "deadline": deadline,
            "owner": owner,
            "defect": defect,
        }
        op.update(extra)
        self.ops.append(op)
        return op


def read_system(text):
    """Parse the system format enough to build reference values."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    q = int(lines[0][1])
    ell, p = int(lines[1][1]), int(lines[1][2])
    rows = [[int(t) % q for t in ln] for ln in lines[2:2 + ell]]
    rhs = [int(t) % q for t in lines[2 + ell][1:]]
    sets = []
    for ln in lines[3 + ell:3 + ell + p]:
        if len(ln) == 1:
            sets.append([])
        elif ln[1] == "all":
            sets.append(list(range(q)))
        else:
            sets.append(sorted(int(t) % q for t in ln[1].split(",")))
    return q, rows, rhs, sets


def generic_two_row(q, rows):
    """True when a 2x4 system normalizes with one support column per row.

    The library takes the last two columns as the identity block when they
    are independent; the rows then need every free entry of B^-1 A nonzero,
    which gives template edges of size r = 3.
    """
    (a, b), (c, d) = [row[2:] for row in rows]
    det = (a * d - b * c) % q
    if not det:
        return False
    inv = pow(det, q - 2, q)
    binv = [[d * inv, -b * inv], [-c * inv, a * inv]]
    free = [[sum(binv[i][k] * rows[k][j] for k in range(2)) % q for j in range(2)] for i in range(2)]
    return all(v for row in free for v in row)


def _verify_checks(ell, q, r, guard=10**6):
    names = ["simple", "edge-counts", "copy-count", "per-solution", "copy-structure"]
    return names + (["edge-equation"] if ell * q**r <= guard else [])


# ---------------------------------------------------------------------------
# encode-verify


def encode_verify(b: Builder):
    rng = b.rng

    def encoded(stem, q, rows, rhs, sets, r):
        path = b.write(stem, q, rows, rhs, sets)
        total = sum(len(s) for s in sets)
        base = {"q": q, "p": len(rows[0]), "ell": len(rows), "labels": total, "r": r}
        return path, base

    def verify(stem, q, rows, rhs, sets, r, naive=False):
        path, base = encoded(stem, q, rows, rhs, sets, r)
        expect = dict(base, T=oracle.count(q, rows, rhs, sets), checks=_verify_checks(len(rows), q, r))
        argv = ["verify", path, "--workers", "1"] + (["--naive"] if naive else [])
        b.add(f"verify{' --naive' if naive else ''} {stem}", "verify", argv, expect=expect, owner="verify")

    def represent(stem, q, rows, rhs, sets, r, dump=False):
        path, base = encoded(stem, q, rows, rhs, sets, r)
        argv = ["represent", path]
        extra = {}
        if dump:
            extra["dump"] = os.path.join(b.workdir, f"{stem}.edges")
            argv += ["--dump", extra["dump"]]
        b.add(f"represent{' --dump' if dump else ''} {stem}", "represent", argv,
              expect=base, owner="hrep", **extra)

    ap4 = [[1, -2, 1, 0], [0, 1, -2, 1]]

    def rhs(q, ell):
        return [rng.randrange(q) for _ in range(ell)]

    def full(q, p):
        return [list(range(q))] * p

    # Full sets: the work is fixed by the shape, whatever the seed draws.
    represent("ap4-f19-full", 19, ap4, rhs(19, 2), full(19, 4), 3, dump=True)
    for q in (17, 13):
        represent(f"ap4-f{q}-full", q, ap4, rhs(q, 2), full(q, 4), 3)
    for q in (5, 7, 11):
        verify(f"ap4-f{q}-full", q, ap4, rhs(q, 2), full(q, 4), 3)
    verify("ones4-f5-full", 5, [[1, 1, 1, 1]], rhs(5, 1), full(5, 4), 3)
    for q in (7, 11, 13):
        verify(f"ones3-f{q}-full", q, [[1, 1, 1]], rhs(q, 1), full(q, 3), 2)
    for q in (5, 7, 11, 13, 17, 19):
        verify(f"row3-f{q}-full", q, [b.nonzero(q, 3)], rhs(q, 1), full(q, 3), 2)
    for q in (5, 7, 11, 13, 17, 19, 23):
        represent(f"row4-f{q}-full", q, [b.nonzero(q, 4)], rhs(q, 1), full(q, 4), 3)
    # Partial sets: seeded rows and contents at fixed sizes.
    for q, size in ((11, 8), (13, 9), (17, 12), (19, 13), (23, 16)):
        verify(f"tri-f{q}-partial", q, [[1, 1, -1]], [0], [b.subset(q, size) for _ in range(3)], 2)
    for q, size in ((7, 4), (7, 5), (7, 6)):
        verify(f"ones4-f{q}-{size}", q, [[1, 1, 1, 1]], rhs(q, 1), [b.subset(q, size) for _ in range(4)], 3)
    for q, size in ((5, 3), (5, 4), (7, 4), (7, 5), (7, 6), (11, 7)):
        while True:
            rows = [b.nonzero(q, 4), b.nonzero(q, 4)]
            if generic_two_row(q, rows):
                break
        verify(f"rand2x4-f{q}-{size}", q, rows, rhs(q, 2), [b.subset(q, size) for _ in range(4)], 3)
    for q, size in ((11, 7), (13, 9), (17, 11)):
        represent(f"row4-f{q}-{size}", q, [b.nonzero(q, 4)], rhs(q, 1),
                  [b.subset(q, size) for _ in range(4)], 3, dump=True)
    # Subset-scan copy oracle on small hosts.
    for q, sizes in ((5, (3, 3, 3)), (5, (4, 4, 3)), (5, (5, 5, 5)), (7, (4, 4, 4)), (7, (5, 5, 5))):
        stem = f"row3-f{q}-{'-'.join(map(str, sizes))}"
        verify(stem, q, [b.nonzero(q, 3)], rhs(q, 1), [b.subset(q, s) for s in sizes], 2, naive=True)
    # Probe: the naive scan above its guard must refuse at once.
    path = b.write("ap4-f7-naive-probe", 7, ap4, rhs(7, 2), full(7, 4))
    b.add("probe verify --naive over guard", "verify",
          ["verify", path, "--naive", "--guard", "1000", "--workers", "1"],
          exit=2, deadline=PROBE_DEADLINE_S, owner="verify")


# ---------------------------------------------------------------------------
# count-remove


def count_remove(b: Builder):
    rng = b.rng
    # The wide counts and the near-guard searches dominate the pass and its
    # tail, and a search's cost depends on the exact coefficients, not only
    # on the shape. They draw from one stream shared by every seed so that
    # the seed does not move the timings; the seed draws everything else.
    h = Draw("count-remove:heavy")
    hr = h.rng

    def count(stem, q, rows, rhs, sets, path=None, **kw):
        path = path or b.write(stem, q, rows, rhs, sets)
        b.add(f"count {stem}", "count", ["count", path], owner="solutions",
              expect={"T": oracle.count(q, rows, rhs, sets)}, **kw)
        return path

    def removal(stem, q, rows, rhs, sets, mode, path=None, defect=None):
        path = path or b.write(stem, q, rows, rhs, sets)
        total = sum(len(s) for s in sets)
        optimum = (oracle.removal_optimum(q, rows, rhs, sets, mode)
                   if total <= oracle.SUBSET_SCAN_LIMIT else None)
        expect = {"q": q, "rows": rows, "rhs": rhs, "sets": sets, "mode": mode, "optimum": optimum}
        b.add(f"removal --mode {mode} {stem}", "removal", ["removal", path, "--mode", mode],
              expect=expect, owner="solutions", defect=defect)
        return path

    # Wide counts: the structured walk covers the product of the free sets.
    count("row6-f31-half", 31, [h.nonzero(31, 6)], [hr.randrange(31)],
          [h.subset(31, 14) for _ in range(6)])
    count("row5-f23", 23, [h.nonzero(23, 5)], [hr.randrange(23)], [h.subset(23, 12) for _ in range(5)])
    count("row4-f101", 101, [h.nonzero(101, 4)], [hr.randrange(101)], [h.subset(101, 40) for _ in range(4)])
    count("rows2x6-f13", 13, [h.nonzero(13, 6), h.nonzero(13, 6)], [hr.randrange(13), hr.randrange(13)],
          [h.subset(13, 10) for _ in range(6)])
    # Near-guard removals (18-24 elements): the branch-and-bound searches.
    for k in range(2):
        sets = [list(range(7))] * 3
        removal(f"row3-f7-full-{k}", 7, [h.nonzero(7, 3)], [hr.randrange(7)], sets, "per-set-max")
    removal("row3-f7-full-total", 7, [h.nonzero(7, 3)], [hr.randrange(7)], [list(range(7))] * 3, "total")
    for k in range(2):
        sets = [h.subset(11, 8) for _ in range(3)]
        removal(f"tri-f11-8-{k}", 11, [[1, 1, -1]], [0], sets, "total")
    removal("row4-f5-18", 5, [h.nonzero(5, 4)], [hr.randrange(5)],
            [h.subset(5, 5), h.subset(5, 5), h.subset(5, 4), h.subset(5, 4)], "total")
    # Small families: the subset scan certifies the optimum.
    for k, (q, sizes) in enumerate(((5, (4, 4, 4)), (7, (5, 5, 4)), (7, (4, 4, 4)), (5, (3, 3, 3, 3)))):
        rows = [b.nonzero(q, len(sizes))]
        rhs = [rng.randrange(q)]
        sets = [b.subset(q, s) for s in sizes]
        path = count(f"small-{k}-f{q}", q, rows, rhs, sets)
        for mode in ("per-set-max", "total"):
            removal(f"small-{k}-f{q}", q, rows, rhs, sets, mode, path=path)
    # Degenerate systems: pins, folds, two-variable residuals, empty sets.
    for name in ("pinned.sys", "fold.sys"):
        path, q, rows, rhs, sets = b.bundled(name)
        count(name[:-4], q, rows, rhs, sets, path=path)
        for mode in ("per-set-max", "total"):
            removal(name[:-4], q, rows, rhs, sets, mode, path=path)
    two_var = [
        ("2x1+x2=3-f5", 5, [[2, 1]], [3], [[0, 3, 4], [0, 3, 4]]),
        ("x1+x2=4-f7", 7, [[1, 1, 0]], [4], [[1, 2], [2, 3], list(range(7))]),
    ]
    for k in range(3):
        q = (5, 7, 7)[k]
        a, c = b.nonzero(q, 2)
        sizes = (3, 3, 4) if q == 5 else (4, 4, 3)
        two_var.append((f"two-var-{k}-f{q}", q, [[a, c, 0]], [rng.randrange(q)],
                        [b.subset(q, s) for s in sizes]))
    for stem, q, rows, rhs, sets in two_var:
        path = count(stem, q, rows, rhs, sets)
        for mode in ("per-set-max", "total"):
            removal(stem, q, rows, rhs, sets, mode, path=path, defect=DEFECT_TWO_VAR)
    for k, q in enumerate((7, 11)):
        sets = [b.subset(q, 4), [], b.subset(q, 4)]
        rows, rhs = [b.nonzero(q, 3)], [rng.randrange(q)]
        path = count(f"empty-set-{k}-f{q}", q, rows, rhs, sets)
        removal(f"empty-set-{k}-f{q}", q, rows, rhs, sets, "per-set-max", path=path)
    # Random-family ratio scans (family size at most 14, so every delta is checked).
    for k, q in enumerate((7, 11)):
        rows, rhs = [b.nonzero(q, 3)], [rng.randrange(q)]
        path = b.write(f"epsdelta-{k}-f{q}", q, rows, rhs, [list(range(q))] * 3)
        scan_seed = rng.randrange(10**6)
        b.add(f"epsdelta epsdelta-{k}-f{q}", "epsdelta",
              ["epsdelta", path, "--trials", "8", "--seed", str(scan_seed), "--guard", "14"],
              expect={"rows": epsdelta_rows(q, rows, rhs, 8, scan_seed, 14)}, owner="solutions")
    # Library route on tiny hosts: minimum copy hitting set, then translation.
    for k in range(3):
        q = 5
        rows, rhs = [b.nonzero(q, 3)], [rng.randrange(q)]
        while True:
            sets = [b.subset(q, 2) for _ in range(3)]
            if 1 <= oracle.count(q, rows, rhs, sets) <= 3:
                break
        path = b.write(f"hitting-{k}-f{q}", q, rows, rhs, sets)
        b.add(f"hitting-set route hitting-{k}-f{q}", "hitting", kind="hitting", path=path,
              expect={"q": q, "rows": rows, "rhs": rhs, "sets": sets}, owner="solutions")
    # Probes: each must exit 2 at once.
    path = b.write("row7-f31-full", 31, [[1, 2, 3, 4, 5, 6, 7]], [0], [list(range(31))] * 7)
    b.add("probe count --guard 1000 row7-f31-full", "count", ["count", path, "--guard", "1000"],
          exit=2, deadline=PROBE_DEADLINE_S, owner="solutions", defect=DEFECT_GUARD)
    path = b.write("row4-f7-over-guard", 7, [b.nonzero(7, 4)], [rng.randrange(7)], [list(range(7))] * 4)
    b.add("probe removal over size guard", "removal", ["removal", path],
          exit=2, deadline=PROBE_DEADLINE_S, owner="solutions")


def epsdelta_rows(q, rows, rhs, trials, seed, guard):
    """Reference ratio rows for `linrem epsdelta` with its documented family draw."""
    p = len(rows[0])
    cap = max(1, guard // p)
    out = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        fam = []
        for _ in range(p):
            size = rng.randint(0, min(q, cap))
            pool = list(range(q))
            rng.shuffle(pool)
            fam.append(sorted(pool[:size]))
        t = oracle.count(q, rows, rhs, fam)
        if t == 0:
            out.append((q, 0.0, 0.0))
            continue
        budget = oracle.removal_optimum(q, rows, rhs, fam, "per-set-max")
        out.append((q, t / q ** (p - len(rows)), budget / q))
    return out


# ---------------------------------------------------------------------------
# behrend-lift


def _in_regime_blocks(m, size):
    """Fewest 2m-blocks whose lift of a size-element set meets |S|^3 >= ap3 * m^2.

    Uses the progression count of a carry-free lift, size * (ceil(c/2)^2 +
    floor(c/2)^2); the caller confirms the choice with a recount.
    """
    c = 1
    while size * ((c + 1) // 2) ** 2 * m * m + size * (c // 2) ** 2 * m * m > (size * c) ** 3:
        c += 1
    return c


def ap3_free_subset(rng, m, size):
    """A random progression-free subset of 1..m with the given size."""
    while True:
        order = list(range(1, m + 1))
        rng.shuffle(order)
        chosen: set[int] = set()
        for x in order:
            if any(2 * x - a in chosen or 2 * a - x in chosen
                   or (a + x) % 2 == 0 and (a + x) // 2 in chosen for a in chosen):
                continue
            chosen.add(x)
            if len(chosen) == size:
                return sorted(chosen)


def sphere(m, base, dim):
    """Largest digit-vector shell, read in radix 2*base-1 (ties to the larger norm)."""
    radix = 2 * base - 1
    shells: dict = {}
    for code in range(base**dim):
        digits = [(code // base**i) % base for i in range(dim)]
        enc = sum(d * radix**i for i, d in enumerate(digits))
        shells.setdefault(sum(d * d for d in digits), []).append(enc)
    norm = max(shells, key=lambda nm: (len(shells[nm]), nm))
    return sorted(shells[norm])


def behrend_lift(b: Builder):
    rng = b.rng

    def in_regime_columns(m, xs):
        """Reference columns for the smallest in-regime ambient length."""
        c = _in_regime_blocks(m, len(xs))
        while True:
            cols = oracle.lift_columns(2 * m * c, m, xs)
            if cols[4] * m * m <= cols[3] ** 3:
                return cols
            c += 1

    def cli_lift(label, m, xs, argv_tail):
        cols = in_regime_columns(m, xs)
        if cols[3] > CLI_LIFT_GUARD:
            raise ValueError(f"{label}: |S|={cols[3]} is above the CLI guard")
        b.add(f"behrend {label}", "behrend", ["behrend", str(cols[0]), str(m)] + argv_tail,
              expect={"columns": cols}, owner="behrend")

    def library_lift(label, m, xs):
        cols = in_regime_columns(m, xs)
        b.add(f"library lift {label}", "lift", kind="lift", owner="behrend",
              n=cols[0], m=m, X=xs, guard=cols[3], expect={"columns": cols})

    # Exhaustive maximum progression-free sets.
    for m in range(20, 31):
        cli_lift(f"max_ap3_free m={m}", m, oracle.max_ap3_free(m)[1], [])
    # Seeded progression-free element lists.
    for m in range(30, 70, 2):
        size = m // 5 + 3
        xs = ap3_free_subset(rng, m, size)
        cli_lift(f"--elements m={m} |X|={size}", m, xs, ["--elements", ",".join(map(str, xs))])
    # Sphere shells picked by the program itself.
    for base, dim, ms in ((2, 2, (9, 10, 12)), (3, 2, (25, 26, 28, 30)), (2, 3, (27, 28, 30, 32))):
        for m in ms:
            cli_lift(f"--sphere {base} {dim} m={m}", m, sphere(m, base, dim),
                     ["--sphere", str(base), str(dim)])
    # Library lifts across sphere shapes, as in scripts/behrend_density.py,
    # and of seeded sets, with |S| from a few hundred to about 1,800.
    for base, dim in ((3, 1), (3, 2), (3, 3), (2, 2), (2, 3), (2, 4), (4, 2)):
        m = (2 * base - 1) ** dim
        library_lift(f"sphere base={base} dim={dim}", m, sphere(m, base, dim))
    for m, size in ((100, 10), (120, 12), (150, 14), (200, 16), (250, 18)):
        library_lift(f"seeded m={m} |X|={size}", m, ap3_free_subset(rng, m, size))


def build(workload, seed, workdir, root):
    """Write the workload's input files and return (ops, input files)."""
    b = Builder(workload, seed, workdir, root)
    {"encode-verify": encode_verify, "count-remove": count_remove, "behrend-lift": behrend_lift}[workload](b)
    return b.ops, b.files
