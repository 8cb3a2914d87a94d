#!/usr/bin/env python3
"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The reference computations agree with plain brute force on small
   random inputs.
2. Every operation of every workload (seed 0) runs once, untimed, and
   its output passes the checker unless it is tagged with a known defect.
3. The checker rejects deliberately corrupted outputs: a wrong `T`, a
   removal that leaves solutions, and each `behrend` column off by one.

Exit code 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402

problems: list[str] = []


def expect(ok, message):
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def check_references():
    rng = random.Random(0)
    for _ in range(60):
        q = rng.choice((3, 5, 7))
        p = rng.randint(2, 4)
        ell = rng.randint(1, p - 1)
        rows = [[rng.randrange(q) for _ in range(p)] for _ in range(ell)]
        rhs = [rng.randrange(q) for _ in range(ell)]
        sets = [sorted(rng.sample(range(q), rng.randint(0, q))) for _ in range(p)]
        raw = len(oracle.solutions(q, rows, rhs, sets))
        expect(oracle.convolution_count(q, rows, rhs, sets) == raw,
               f"convolution count disagrees on q={q} rows={rows} sets={sets}")
        if sum(map(len, sets)) <= 10:
            for mode in ("per-set-max", "total"):
                got = oracle.removal_optimum(q, rows, rhs, sets, mode)
                expect(got == brute_removal(q, rows, rhs, sets, mode),
                       f"removal optimum disagrees on q={q} rows={rows} sets={sets} {mode}")
    for m in range(1, 13):
        best = max(len(c) for k in range(m + 1) for c in itertools.combinations(range(1, m + 1), k)
                   if oracle.ap3_counts(c)[1] == 0)
        expect(oracle.max_ap3_free(m)[0] == best, f"max_ap3_free({m}) is not {best}")
    for _ in range(30):
        vals = rng.sample(range(1, 80), rng.randint(1, 25))
        cubic = sum(1 for a in vals for b in vals for c in vals if a + c == 2 * b)
        expect(oracle.ap3_counts(vals)[0] == cubic, f"ap3 count disagrees on {sorted(vals)}")


def brute_removal(q, rows, rhs, sets, mode):
    elements = [(i, v) for i, s in enumerate(sets) for v in s]
    best = None
    for mask in range(1 << len(elements)):
        gone = [set() for _ in sets]
        for t, (i, v) in enumerate(elements):
            if mask >> t & 1:
                gone[i].add(v)
        rest = [[v for v in s if v not in g] for s, g in zip(sets, gone)]
        if oracle.solutions(q, rows, rhs, rest):
            continue
        cost = max(map(len, gone), default=0) if mode == "per-set-max" else sum(map(len, gone))
        best = cost if best is None else min(best, cost)
    return best


def run_workloads(linrem, workdir):
    """Run every operation once; return {check kind: [(op, exit, stdout)]} of passing outputs."""
    passing: dict[str, list] = {}
    for name in workloads.WORKLOADS:
        os.makedirs(os.path.join(workdir, name))
        ops, _ = workloads.build(name, 0, os.path.join(workdir, name), ROOT)
        bad = 0
        for op in ops:
            _, code, stdout, status, _ = runner.run_op(linrem, op, None)
            dump = None
            if op.get("dump") and code == 0:
                with open(op["dump"], encoding="utf-8") as fh:
                    dump = fh.read()
            reason = status if status != "ok" else oracle.check(op, code, stdout, dump)
            if reason is None:
                passing.setdefault(op["check"], []).append((op, code, stdout))
            elif not op["defect"]:
                bad += 1
                expect(False, f"{name}: {op['name']}: {reason}")
        print(f"{name}: {len(ops)} operations, {bad} unexpected failures")
    return passing


def check_corruptions(passing):
    counts = [c for c in passing["count"] if c[0]["exit"] == 0 and c[0]["expect"]["T"] > 0]
    for op, code, stdout in counts[:3]:
        wrong = f"T={op['expect']['T'] + 1}\n"
        expect(oracle.check(op, code, wrong) is not None, f"wrong T accepted for {op['name']}")
    removals = [(op, code, stdout) for op, code, stdout in passing["removal"]
                if op["exit"] == 0 and oracle.count(*(op["expect"][k] for k in ("q", "rows", "rhs", "sets")))]
    for op, code, stdout in removals[:3]:
        p = len(op["expect"]["sets"])
        keep_all = "".join(f"remove set {i + 1}:\n" for i in range(p))
        keep_all += f"budget=0 total=0 mode={op['expect']['mode']}\n"
        expect(oracle.check(op, code, keep_all) is not None, f"non-freeing removal accepted for {op['name']}")
    for op, code, stdout in passing["behrend"][:3] + passing["lift"][:2]:
        cols = stdout.split()
        for k in range(len(cols)):
            shifted = cols[:k] + [str(int(cols[k]) + 1)] + cols[k + 1:]
            expect(oracle.check(op, code, " ".join(shifted) + "\n") is not None,
                   f"behrend column {k + 1} off by one accepted for {op['name']}")
    print(f"corruptions: {len(counts[:3])} counts, {len(removals[:3])} removals, "
          f"{len(passing['behrend'][:3] + passing['lift'][:2])} behrend lines tried")


def main():
    check_references()
    print("references: checked against brute force")
    linrem = runner.import_linrem()
    signal.signal(signal.SIGALRM, runner._alarm)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(HERE, ".work"))
    try:
        passing = run_workloads(linrem, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_corruptions(passing)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
