"""Command line front end.

Exit codes: 0 success (and all checks passing), 1 check failure with a
witness printed, 2 input error. Output is deterministic for a fixed
input file and seed, so every subcommand is golden-file testable.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .behrend import behrend_sphere, build_lower_bound_instance, max_ap3_free
from .errors import CheckError, EmptyW, InputError, SearchBudgetExceeded
from .hrep import build_coefficients, build_host, export_edges, host_plans, iter_host_edges
from .hrep import parse_host_export, predicted_edges
from .linsys import LinearSystem, SetFamily, format_system, normalize, parse_system, reduce_degenerate
from .solutions import count_system, epsdelta_scan, plan_removal, translate_edge_deletion
from .verify import check_representation


def _load(path: str) -> tuple[LinearSystem, SetFamily]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _encode(system: LinearSystem, sets: SetFamily, guard: int | None = None):
    """The reduced system's normal form, the reduction that maps back to the input,
    and the host's edges, n^(r-1) per admissible label; refused above guard."""
    red = reduce_degenerate(system, sets)
    if red.system is None:
        raise EmptyW(f"the system reduces to kind {red.kind}; there is no equation left to encode")
    ns = normalize(red.system)
    edges = predicted_edges(ns, red.sets)
    if guard is not None and edges > guard:
        raise SearchBudgetExceeded(f"host needs {edges} edges, guard is {guard}")
    return ns, red, edges


def _build(system: LinearSystem, sets: SetFamily):
    """The host of the reduced system, and the reduction that maps back to the input."""
    ns, red, _ = _encode(system, sets)
    return build_host(ns, build_coefficients(ns), red.sets), red


def cmd_normalize(args) -> int:
    system, sets = _load(args.input)
    ns = normalize(system)
    lines = [
        "# columns " + ",".join(str(j + 1) for j in ns.perm),
        f"# r {ns.uniformity} k {ns.vertex_count}",
    ]
    for i in range(ns.ell):
        support = ",".join(str(j + 1) for j in ns.support[i])
        lines.append(
            f"# row {i + 1}: pivot {ns.pivots[i] + 1} support {support} diag {ns.diag_cols[i] + 1}"
        )
    print("\n".join(lines))
    print(format_system(ns.base, ns.permute_family(sets)), end="")
    return 0


def cmd_count(args) -> int:
    system, sets = _load(args.input)
    mode = "naive" if args.naive else "structured"
    print(f"T={count_system(system, sets, mode=mode, guard=args.guard)}")
    return 0


def cmd_represent(args) -> int:
    system, sets = _load(args.input)
    ns, red, edges = _encode(system, sets, guard=args.guard)
    coeffs, sets_n = build_coefficients(ns), ns.permute_family(red.sets)
    # Written first, so a refused host or path leaves no file and stdout empty.
    if args.dump:
        text = export_edges(ns, iter_host_edges(ns, coeffs, sets_n))
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        host_plans(ns, coeffs, sets_n)
    colors = ns.free_count + ns.ell
    print(f"r={ns.uniformity} k={ns.vertex_count} colors={colors} edges={edges} labels={red.sets.total_size()}")
    return 0


def cmd_verify(args) -> int:
    system, sets = _load(args.input)
    host, _ = _build(system, sets)
    report = check_representation(host, mode="naive" if args.naive else "per-part", guard=args.guard)
    for name, tuples in report.skipped:
        print(f"skipped {name}: needs {tuples} tuples, guard is {args.guard}", file=sys.stderr)
    print(report.render(), end="")
    return 0 if report.passed else 1


def cmd_removal(args) -> int:
    system, sets = _load(args.input)
    result = plan_removal(system, sets, mode=args.mode, guard=args.guard)
    for i, vals in enumerate(result.removed):
        print(f"remove set {i + 1}: " + ",".join(str(v) for v in vals))
    print(f"budget={result.budget} total={result.total} mode={result.mode}")
    return 0


def cmd_translate(args) -> int:
    system, sets = _load(args.input)
    host, red = _build(system, sets)
    with open(args.edges, "r", encoding="utf-8") as fh:
        edges = parse_host_export(host, fh.read())
    rest = translate_edge_deletion(host, edges, host.sets)
    # The host's column k is the input's column red.kept_columns[k].
    removals = [()] * system.p
    for col, before, after in zip(red.kept_columns, host.sets.sets, rest.sets):
        removals[col] = set(before) - set(after)
    print(format_system(system, sets.with_removed(removals)), end="")
    return 0


def cmd_epsdelta(args) -> int:
    system, sets = _load(args.input)
    q = system.field.q
    p = system.p
    if args.guard < p:
        raise SearchBudgetExceeded(
            f"guard {args.guard} is below the {p} unknowns; it leaves no room for one value per set"
        )
    cap = args.guard // p

    def generate(trial: int) -> SetFamily:
        rng = random.Random(f"{args.seed}:{trial}")
        fam = []
        for _ in range(p):
            size = rng.randint(0, min(q, cap))
            pool = list(range(q))
            rng.shuffle(pool)
            fam.append(tuple(sorted(pool[:size])))
        return SetFamily(system.field, tuple(fam))

    for n, eps, delta in epsdelta_scan(system, generate, args.trials, removal_guard=args.guard):
        print(f"{n},{eps},{delta}")
    return 0


def cmd_behrend(args) -> int:
    try:
        if args.elements is not None:
            xs = tuple(int(t) for t in args.elements.split(","))
        elif args.sphere is not None:
            xs = behrend_sphere(args.m, args.sphere[0], args.sphere[1])
        else:
            xs = max_ap3_free(args.m)[1]
        inst = build_lower_bound_instance(args.n, args.m, xs)
    except ValueError as exc:
        print(f"ValueError: {exc}", file=sys.stderr)
        return 2
    print(
        f"{inst.n} {inst.m} {len(inst.X)} {inst.size} "
        f"{inst.ap3_total} {inst.ap3_nontrivial} {inst.bound}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The linrem parser, built on the first call and shared by every later
    call in the process; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="linrem",
        description="Hypergraph encodings and removal searches for linear systems over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(name: str, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input", help="system file")
        return sp

    sp = with_input("normalize", "print the pivot form and its structure")
    sp.set_defaults(fn=cmd_normalize)

    sp = with_input("count", "print the admissible solution count")
    sp.add_argument("--naive", action="store_true", help="full product enumeration")
    sp.add_argument("--guard", type=int, default=10**6, help="transfer steps (tuples with --naive)")
    sp.set_defaults(fn=cmd_count)

    sp = with_input("represent", "certify the host hypergraph's layout and print its summary")
    sp.add_argument("--dump", metavar="PATH", help="stream the edge list in export format from the certified plans")
    sp.add_argument("--guard", type=int, default=10**6, help="host edge budget")
    sp.set_defaults(fn=cmd_represent)

    sp = with_input("verify", "run every representation check")
    sp.add_argument("--naive", action="store_true", help="use the subset-scan copy oracle")
    sp.add_argument("--guard", type=int, default=10**6, help="check budgets")
    sp.add_argument("--workers", type=int, default=1, help="ignored; copies are walked in one process")
    sp.set_defaults(fn=cmd_verify)

    sp = with_input("removal", "exact minimal freeing removal")
    sp.add_argument("--mode", choices=("per-set-max", "total"), default="per-set-max")
    sp.add_argument("--guard", type=int, default=24, help="total family size budget")
    sp.set_defaults(fn=cmd_removal)

    sp = with_input("translate", "apply an edge deletion as element removals")
    sp.add_argument("edges", help="deleted edges in host export format")
    sp.set_defaults(fn=cmd_translate)

    sp = with_input("epsdelta", "random-family ratio scan, CSV n,eps,delta")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--guard", type=int, default=24, help="removal search budget")
    sp.set_defaults(fn=cmd_epsdelta)

    sp = sub.add_parser("behrend", help="lower-bound instance from a progression-free set")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--elements", help="comma-separated progression-free subset of 1..m")
    group.add_argument("--sphere", nargs=2, type=int, metavar=("BASE", "DIM"))
    sp.set_defaults(fn=cmd_behrend)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CheckError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
