"""Reference values computed without linrem, and the output checker.

Nothing here imports the package under test. Solution counts come from a
raw product scan (or, for wide families, an exact residue convolution),
removal optima from a subset scan over elements, progression counts from
a big-integer squaring of the set's indicator, and maximum progression-free
sizes from a search that bounds by shorter intervals.
"""

from __future__ import annotations

import itertools

RAW_COUNT_LIMIT = 300_000
SUBSET_SCAN_LIMIT = 14


# ---------------------------------------------------------------------------
# Linear systems: a system is (q, rows, rhs) and a family a list of value lists.


def solutions(q, rows, rhs, sets):
    """Every admissible solution by raw product enumeration."""
    out = []
    for tup in itertools.product(*sets):
        if all(sum(c * x for c, x in zip(row, tup)) % q == b % q for row, b in zip(rows, rhs)):
            out.append(tup)
    return out


def convolution_count(q, rows, rhs, sets):
    """Exact solution count by convolving per-column residue vectors."""
    ell = len(rows)
    states = {(0,) * ell: 1}
    for j, values in enumerate(sets):
        col = [row[j] % q for row in rows]
        nxt: dict = {}
        for state, cnt in states.items():
            for v in values:
                key = tuple((s + c * v) % q for s, c in zip(state, col))
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return states.get(tuple(b % q for b in rhs), 0)


def count(q, rows, rhs, sets):
    work = 1
    for s in sets:
        work *= len(s)
    if work <= RAW_COUNT_LIMIT:
        return len(solutions(q, rows, rhs, sets))
    return convolution_count(q, rows, rhs, sets)


def removal_optimum(q, rows, rhs, sets, mode):
    """Cheapest freeing removal cost by scanning element subsets.

    Subsets are scanned in order of cost, so the first one that meets
    every solution is optimal.
    """
    elements = [(i, v) for i, s in enumerate(sets) for v in s]
    if len(elements) > SUBSET_SCAN_LIMIT:
        raise ValueError(f"{len(elements)} elements exceed the subset scan limit")
    index = {e: t for t, e in enumerate(elements)}
    sols = [
        sum(1 << index[(i, v)] for i, v in enumerate(sol))
        for sol in solutions(q, rows, rhs, sets)
    ]
    if not sols:
        return 0

    def frees(mask):
        return all(s & mask for s in sols)

    if mode == "total":
        for k in range(1, len(elements) + 1):
            for combo in itertools.combinations(range(len(elements)), k):
                if frees(sum(1 << t for t in combo)):
                    return k
    else:
        per_set = [[index[(i, v)] for v in s] for i, s in enumerate(sets)]
        for bound in range(1, max(len(s) for s in sets) + 1):
            choices = [
                [
                    sum(1 << t for t in combo)
                    for k in range(min(bound, len(ids)) + 1)
                    for combo in itertools.combinations(ids, k)
                ]
                for ids in per_set
            ]
            for picks in itertools.product(*choices):
                if frees(sum(picks)):
                    return bound
    raise AssertionError("deleting every element frees any family")


# ---------------------------------------------------------------------------
# Progressions.


def ap3_counts(values):
    """Ordered 3-term progression counts (total, nontrivial).

    Squares the indicator polynomial of the set as one big integer: the
    coefficient at 2y counts ordered pairs with midpoint y.
    """
    elems = sorted(set(values))
    if not elems:
        return 0, 0
    width = (len(elems).bit_length() + 8) // 8
    shift = 8 * width
    base = elems[0]
    poly = 0
    for x in elems:
        poly |= 1 << (shift * (x - base))
    square = (poly * poly).to_bytes(width * (2 * (elems[-1] - base) + 1), "little")
    total = 0
    for y in elems:
        k = 2 * (y - base)
        total += int.from_bytes(square[k * width:(k + 1) * width], "little")
    return total, total - len(elems)


def lift(n, m, xs):
    members = set(xs)
    return [x for x in range(1, n + 1) if x % (2 * m) in members]


def lift_columns(n, m, xs):
    """The seven `behrend` output columns for the lift of xs to 1..n."""
    s = lift(n, m, xs)
    total, nontrivial = ap3_counts(s)
    return [n, m, len(xs), len(s), total, nontrivial, len(s) ** 3 // (m * m)]


def max_ap3_free(m):
    """Largest progression-free subset of 1..m and its least witness.

    Grows the answer for every prefix length, so the size of the best set
    inside any shorter interval bounds how much a partial set can still
    gain.
    """
    best = [0] * (m + 1)
    witness: tuple = ()
    for top in range(1, m + 1):
        target = best[top - 1] + 1
        found = _least_free_set(top, target, best)
        best[top] = target if found else best[top - 1]
        if top == m:
            witness = found or _least_free_set(top, best[top], best)
    return best[m], witness


def _least_free_set(m, size, best):
    """Lexicographically least progression-free size-set in 1..m, or None."""
    chosen: list[int] = []
    blocked = [False] * (m + 2)

    def walk(nxt):
        need = size - len(chosen)
        if need == 0:
            return True
        for e in range(nxt, m + 1):
            if best[m - e] + 1 < need:
                return False
            if blocked[e]:
                continue
            added = [2 * e - a for a in chosen if 2 * e - a <= m and not blocked[2 * e - a]]
            chosen.append(e)
            for b in added:
                blocked[b] = True
            if walk(e + 1):
                return True
            chosen.pop()
            for b in added:
                blocked[b] = False
        return False

    return tuple(chosen) if walk(1) else None


# ---------------------------------------------------------------------------
# Output checks. Each returns None for a correct output, else the reason.


def _parse_removal(stdout, p):
    lines = stdout.splitlines()
    if len(lines) != p + 1:
        raise ValueError(f"{len(lines)} lines, wants {p + 1}")
    removed = []
    for i, line in enumerate(lines[:p]):
        head, _, tail = line.partition(":")
        if head != f"remove set {i + 1}":
            raise ValueError(f"bad line {line!r}")
        removed.append([int(t) for t in tail.strip().split(",")] if tail.strip() else [])
    fields = dict(tok.split("=") for tok in lines[p].split())
    return removed, fields


def check_count(op, stdout):
    want = f"T={op['expect']['T']}\n"
    return None if stdout == want else f"printed {stdout.strip()!r}, wants {want.strip()!r}"


def check_represent(op, stdout, dump_text=None):
    exp = op["expect"]
    fields = dict(tok.split("=") for tok in stdout.split())
    r, k, colors, edges, labels = (int(fields[f]) for f in ("r", "k", "colors", "edges", "labels"))
    q, p, ell, total = exp["q"], exp["p"], exp["ell"], exp["labels"]
    if r != exp["r"]:
        return f"r={r}, wants {exp['r']}"
    if labels != total or colors != p or k != r - 1 + p - ell:
        return f"summary {stdout.strip()!r} disagrees with q={q} p={p} ell={ell} labels={total}"
    if edges != total * q ** (r - 1):
        return f"edges={edges}, wants {total} * {q}^{r - 1}"
    if dump_text is None:
        return None
    lines = dump_text.splitlines()
    if len(lines) != edges:
        return f"dump has {len(lines)} lines, wants {edges}"
    per_label: dict = {}
    keys = set()
    for line in lines:
        toks = line.split()
        if len(toks) != 2 + r:
            return f"dump line {line!r} is not an r={r} edge"
        pair = (int(toks[0]), int(toks[1]))
        per_label[pair] = per_label.get(pair, 0) + 1
        keys.add(tuple(toks[2:]))
    if len(keys) != edges:
        return "dump repeats a vertex set"
    if any(c != q ** (r - 1) for c in per_label.values()) or len(per_label) != total:
        return "dump edge counts per (color, label) are not n^(r-1)"
    return None


def check_verify(op, stdout):
    exp = op["expect"]
    lines = stdout.splitlines()
    checks = [line.split() for line in lines if line.startswith("CHECK ")]
    names = [c[1] for c in checks]
    if names != exp["checks"]:
        return f"checks {names}, wants {exp['checks']}"
    failed = [c[1] for c in checks if c[2] != "PASS"]
    if failed:
        return f"checks failed: {failed}"
    fields = dict(tok.split("=") for tok in lines[-1].split()[1:])
    edges, t, copies = int(fields["edges"]), int(fields["T"]), int(fields["copies"])
    if t != exp["T"]:
        return f"T={t}, wants {exp['T']}"
    shell = exp["q"] ** (exp["r"] - 1)
    if edges != exp["labels"] * shell:
        return f"edges={edges}, wants {exp['labels'] * shell}"
    if copies != t * shell:
        return f"copies={copies}, wants T*n^(r-1) = {t * shell}"
    return None


def check_removal(op, stdout):
    exp = op["expect"]
    q, rows, rhs, sets = exp["q"], exp["rows"], exp["rhs"], exp["sets"]
    removed, fields = _parse_removal(stdout, len(sets))
    for i, (gone, s) in enumerate(zip(removed, sets)):
        if not set(gone) <= set(s):
            return f"set {i + 1}: removes {gone}, not all admissible"
    rest = [[v for v in s if v not in set(gone)] for s, gone in zip(sets, removed)]
    left = count(q, rows, rhs, rest)
    if left:
        return f"removal leaves {left} solutions"
    budget = max((len(g) for g in removed), default=0)
    total = sum(len(g) for g in removed)
    if fields != {"budget": str(budget), "total": str(total), "mode": exp["mode"]}:
        return f"summary {fields} disagrees with the removed lists"
    optimum = exp.get("optimum")
    if optimum is not None:
        cost = budget if exp["mode"] == "per-set-max" else total
        if cost != optimum:
            return f"{exp['mode']} cost {cost}, subset-scan optimum {optimum}"
    return None


def check_epsdelta(op, stdout):
    want = "".join(f"{n},{eps},{delta}\n" for n, eps, delta in op["expect"]["rows"])
    return None if stdout == want else "ratio rows differ from the reference scan"


def check_behrend(op, stdout):
    got = stdout.split()
    want = [str(v) for v in op["expect"]["columns"]]
    return None if got == want else f"columns {got}, wants {want}"


def check_hitting(op, stdout):
    exp = op["expect"]
    rest = [[int(t) for t in line.split(",")] if line else [] for line in stdout.split("\n")[:-1]]
    if len(rest) != len(exp["sets"]) or any(not set(r) <= set(s) for r, s in zip(rest, exp["sets"])):
        return "translated family is not a subfamily of the input"
    left = count(exp["q"], exp["rows"], exp["rhs"], rest)
    return f"translated family keeps {left} solutions" if left else None


CHECKERS = {
    "count": check_count,
    "verify": check_verify,
    "removal": check_removal,
    "epsdelta": check_epsdelta,
    "behrend": check_behrend,
    "lift": check_behrend,
    "hitting": check_hitting,
}


def check(op, exit_code, stdout, dump_text=None):
    """None when the operation behaved as the reference says, else why not."""
    if exit_code != op["exit"]:
        return f"exit {exit_code}, wants {op['exit']}"
    if op["exit"] != 0:
        return None
    try:
        if op["check"] == "represent":
            return check_represent(op, stdout, dump_text)
        return CHECKERS[op["check"]](op, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
