#!/usr/bin/env python3
"""Seeded benchmark for linrem: one workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload encode-verify --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed and their reference values
(outside any timed region), then starts one fresh measurement process
(runner.py) that runs the operations in a closed loop for --seconds and,
between passes, times the set-up of fresh processes. Every output is checked
against the reference values. The last line of stdout is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced pass with
--trace 1. Lines before it name each metric with its unit and list every
failed operation.

`correct` is false when an output is wrong in a way no known defect
explains; failures of operations tagged with a ROADMAP defect are still
counted in `failed` and listed by name.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
LAYERS = ("cli", "linsys", "hrep", "solutions", "verify", "behrend")
# The reference kernel's time (runner.reference) at this host's usual speed.
REFERENCE_S = 0.0015

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_NAMES = [
    "hrep.build_host_s", "hrep.coefficients_s", "hrep.export_s", "hrep.edges",
    "hrep.us_per_edge", "hrep.copies_for_solution_s",
    "verify.enumerate_s", "verify.copies", "verify.us_per_copy", "verify.per_solution_s",
    "verify.copy_structure_s", "verify.edge_equation_s", "verify.edge_equation_tuples",
    "verify.simple_s", "verify.edge_counts_s", "verify.naive_s", "verify.naive_subsets",
    "solutions.count_s", "solutions.count_tuples", "solutions.ns_per_tuple",
    "solutions.iter_solutions_s", "solutions.removal_pm_s", "solutions.removal_total_s",
    "solutions.removal_solutions", "solutions.hitting_set_s", "solutions.hitting_copies",
    "solutions.translate_s", "solutions.epsdelta_s",
    "linsys.parse_s", "linsys.normalize_s", "linsys.reduce_s", "linsys.reduce_calls",
    "behrend.max_ap3_free_s", "behrend.sphere_s", "behrend.lift_s", "behrend.count_ap3_s",
    "behrend.pairs", "behrend.ns_per_pair",
    "cli.self_s",
] + [f"{layer}.self_s" for layer in LAYERS if layer != "cli"] + [
    f"{layer}.failed" for layer in LAYERS
] + ["trace.overhead_s"]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if ".ns_per_" in name:
        return "ns"
    return "count"


# Counts derived from the inputs of a call rather than read from its result.
COMPUTED = ("solutions.count_tuples", "verify.naive_subsets", "verify.edge_equation_tuples",
            "behrend.pairs")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail(samples):
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        value = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
        if n - bisect.bisect_right(ordered, value) >= TAIL_BEYOND:
            return pct, value
    return 50.0, statistics.median(ordered)


def check_outputs(ops, results):
    """Map (op id, output digest) to the failure reason, None when the output is right."""
    verdicts = {}
    for op in ops:
        seen = results["outputs"][op["id"]]
        for key, out in seen.items():
            if out["status"] != "ok":
                reason = out["status"]
            else:
                dump_text = None
                if op.get("dump") and out["exit"] == 0:
                    with open(op["dump"], encoding="utf-8") as fh:
                        dump_text = fh.read()
                reason = oracle.check(op, out["exit"], out["stdout"], dump_text)
            if reason is None and len(seen) > 1:
                reason = "output differs between passes"
            verdicts[(op["id"], key)] = reason
    return verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "linrem", "cli.py")):
        return fail(f"no linrem sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isdir(os.path.join(ROOT, "systems")):
        return fail("no bundled systems/ directory")

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(HERE, ".work"))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    t0 = perf_counter()
    ops, files = workloads.build(args.workload, args.seed, workdir, ROOT)
    print(f"# {args.workload} seed={args.seed}: {len(ops)} operations, {len(files)} input files, "
          f"references built in {perf_counter() - t0:.2f}s")
    manifest = os.path.join(workdir, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "files": files}, fh)

    results_path = os.path.join(workdir, "results.json")
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), manifest, results_path,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_path = os.path.join(HERE, ".work", f"spans-{args.workload}-{args.seed}.jsonl")
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return fail(f"measurement process exited {proc.returncode}")
    with open(results_path, encoding="utf-8") as fh:
        results = json.load(fh)

    verdicts = check_outputs(ops, results)
    by_id = {op["id"]: op for op in ops}
    execs = results["executions"]
    failing = {}
    for e in execs:
        reason = verdicts[(e["op"], e["digest"])]
        if reason is not None:
            failing.setdefault(e["op"], reason)
    unexplained = [op_id for op_id in failing if not by_id[op_id]["defect"]]
    # An operation fails when any of its executions fails. Counting
    # operations, not executions, keeps both numbers independent of how
    # many passes fit into the run.
    attempted = len(ops)
    failed = len(failing)

    for op_id, reason in sorted(failing.items()):
        op = by_id[op_id]
        tag = f" [{op['defect']}]" if op["defect"] else " [UNEXPECTED]"
        print(f"# FAILED {op['name']}: {reason}{tag}")

    if args.trace:
        metrics = layer_report(results, execs, verdicts, by_id)
    else:
        metrics = end_to_end_report(results, execs, attempted, failed)
    units = END_TO_END if not args.trace else {name: unit_of(name) for name in PER_LAYER_NAMES}
    for name, value in metrics.items():
        label = " (computed from inputs)" if name in COMPUTED else ""
        print(f"# {name} = {value:.6g} {units[name]}{label}")
    result = {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end_report(results, execs, attempted, failed):
    # The host's speed drifts by a third and more between and within runs,
    # for every process alike. Each pass therefore times a fixed reference
    # kernel before every operation, and every time measured in a pass is
    # scaled by REFERENCE_S over the kernel's median time in that pass:
    # times at a fixed host speed. An operation stopped at its deadline
    # took the deadline, a wall time, and is not scaled. Each set-up sample
    # is scaled by the kernel's time in its own process.
    refs: dict[int, list[float]] = {}
    for e in execs:
        refs.setdefault(e["pass_no"], []).append(e["ref"])
    scale = {n: REFERENCE_S / statistics.median(v) for n, v in refs.items()}
    # Every operation's latency is its median over the run's timed passes;
    # the pass time is their sum, and the percentiles weigh each median by
    # its sample count.
    per_op: dict[str, list[float]] = {}
    raw_op: dict[str, list[float]] = {}
    for e in execs:
        if e["pass"] == "plain":
            factor = 1.0 if e["stopped"] else scale[e["pass_no"]]
            per_op.setdefault(e["op"], []).append(e["seconds"] * 1000 * factor)
            raw_op.setdefault(e["op"], []).append(e["seconds"])
    samples = [statistics.median(v) for v in per_op.values() for _ in v]
    pct, tail_ms = tail(samples)
    beyond = sum(1 for v in samples if v > tail_ms)
    print(f"# op_tail_ms is p{pct:g} of {len(samples)} operation samples ({beyond} beyond it); "
          f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    timed = sorted({e["pass_no"] for e in execs if e["pass"] == "plain"})
    print(f"# host speed per timed pass (reference {REFERENCE_S * 1000:g} ms / measured): "
          f"{' '.join(f'{scale[n]:.3f}' for n in timed)}")
    print(f"# unscaled: pass wall times {' '.join(f'{p:.3f}' for p in results['passes']['plain'])} s, "
          f"sum of median latencies {sum(statistics.median(v) for v in raw_op.values()):.3f} s, "
          f"median set-up {statistics.median(t for t, _ in results['setup']):.4f} s")
    return {
        "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in results["setup"]),
        "pass_s": sum(statistics.median(v) for v in per_op.values()) / 1000,
        "op_p50_ms": statistics.median(samples),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": results["peak_rss_mb"],
        "ok_ratio": 1 - failed / attempted,
    }


def layer_report(results, execs, verdicts, by_id):
    passes = results["layer_passes"]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    failed_by_layer = {layer: 0 for layer in LAYERS}
    for e in execs:
        if e["pass"] != "traced":
            continue
        reason = verdicts[(e["op"], e["digest"])]
        if reason is None:
            continue
        exit_ok = not reason.startswith(("exit", "deadline", "raised"))
        layer = by_id[e["op"]]["owner"] if exit_ok or e["layer"] is None else e["layer"]
        failed_by_layer[layer] += 1
    n_traced = len(passes)
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = failed_by_layer[layer] / n_traced
    metrics["trace.overhead_s"] = (statistics.median(results["passes"]["traced"])
                                   - statistics.median(results["passes"]["plain"]))
    total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'] / total_self:.1%}" for layer in LAYERS)
    print(f"# self-time share per layer (traced pass): {shares}")
    return {name: metrics[name] for name in PER_LAYER_NAMES}


if __name__ == "__main__":
    sys.exit(main())
