"""Measurement process: runs one workload's operations in a closed loop.

Started fresh by run.py for every measurement, so its peak RSS belongs to
this workload alone. Operations run one after another in this process,
each through `linrem.cli.main` (or a library route with no subcommand),
the next starting only when the previous one returns. Each has a
deadline enforced with SIGALRM; a missed deadline stops the operation.
A fixed reference kernel is timed right before every operation, so that
run.py can scale the times to a fixed host speed. Between passes of an
untraced run, fresh interpreters time the set-up (import linrem, parse
every input file), one after another.

    python3 perfbench/runner.py MANIFEST RESULTS --seconds S --trace 0|1

The manifest is written by run.py; the results hold per-execution
timings, the distinct outputs of each operation and, with --trace 1, the
per-layer metrics of every traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 5
SETUP_PER_GAP = 3

# Set-up as a user pays it: a fresh interpreter imports linrem and parses
# every input file of the workload. It then times the reference kernel
# three times, so that the sample can be scaled by the host speed of that
# moment.
SETUP_CODE = """
import statistics
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import linrem.cli
from linrem.linsys import parse_system
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as fh:
        parse_system(fh.read())
setup = perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from runner import reference
refs = []
for _ in range(3):
    t0 = perf_counter()
    reference()
    refs.append(perf_counter() - t0)
print(setup, statistics.median(refs))
"""


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; BaseException so no linrem handler catches it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def reference():
    """A fixed pure-Python kernel, timed before every operation.

    Tuples, modular arithmetic, dicts, lists and sets, like linrem's own
    inner loops, and no linrem code. Its time tracks the host's speed at
    that moment; run.py scales the operations' times by it.
    """
    hist: dict[int, int] = {}
    for t in itertools.product(range(7), repeat=4):
        key = (t[0] + 2 * t[1] + 3 * t[2] + 4 * t[3]) % 7
        hist[key] = hist.get(key, 0) + 1
    groups: dict[int, list] = {}
    for i in range(2000):
        groups.setdefault(i % 17, []).append((i % 13, i % 11))
    seen = {a * 31 + b for group in groups.values() for a, b in group}
    return hist[0] + len(seen)


def measure_setup(files):
    """Seconds a fresh interpreter takes to import linrem and parse the inputs,
    and the reference kernel's seconds in that interpreter right after."""
    res = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, os.path.join(ROOT, "src"), HERE] + files,
        capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
    )
    setup, ref = res.stdout.split()
    return float(setup), float(ref)


def import_linrem():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import linrem.behrend
    import linrem.cli
    import linrem.hrep
    import linrem.linsys
    import linrem.solutions

    where = os.path.dirname(os.path.abspath(linrem.__file__))
    if where != os.path.join(ROOT, "src", "linrem"):
        raise ImportError(f"linrem imported from {where}, not from this checkout")
    return linrem


def hitting_route(linrem, op):
    """Minimum copy hitting set on a tiny host, translated back to element removals."""
    with open(op["path"], encoding="utf-8") as fh:
        system, sets = linrem.linsys.parse_system(fh.read())
    ns = linrem.linsys.normalize(system)
    host = linrem.hrep.build_host(ns, linrem.hrep.build_coefficients(ns), sets)
    copies = [
        copy
        for sol in linrem.solutions.iter_solutions(ns, sets)
        for copy in linrem.hrep.copies_for_solution(host, sol)
    ]
    edges = linrem.solutions.min_copy_hitting_set(host, copies)
    rest = linrem.solutions.translate_edge_deletion(host, edges, sets)
    print("\n".join(",".join(str(v) for v in s) for s in rest.sets))
    return 0


def lift_route(linrem, op):
    inst = linrem.behrend.build_lower_bound_instance(op["n"], op["m"], op["X"], guard=op["guard"])
    print(f"{inst.n} {inst.m} {len(inst.X)} {len(inst.S)} "
          f"{inst.ap3_total} {inst.ap3_nontrivial} {inst.bound}")
    return 0


ROUTES = {"hitting": hitting_route, "lift": lift_route}


def run_op(linrem, op, tracer):
    """Run one operation; returns (seconds, exit code or None, stdout, status, error layer)."""
    out = io.StringIO()
    code = None
    status = "ok"
    first = len(tracer.spans) if tracer else 0
    root = None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op["deadline"])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if tracer:
                    tracer.op = op["id"]
                    if op["kind"] == "cli":
                        root = tracer.begin("cli.main", "cli")
                    else:
                        root = tracer.begin(f"route.{op['kind']}", "route")
                try:
                    if op["kind"] == "cli":
                        code = linrem.cli.main(op["argv"])
                    else:
                        code = ROUTES[op["kind"]](linrem, op)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
    except Exception as exc:  # a library route raised: the operation failed
        status = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    layer = None
    if tracer:
        while len(tracer.stack) > 0 and tracer.stack[-1] >= root:
            tracer.finish(tracer.stack[-1], None if status == "ok" else status.split(":")[0])
        layer = tracer.innermost_error(first + 1)
    return seconds, code, out.getvalue(), status, layer


def digest_of(op, code, stdout, status):
    h = hashlib.sha256(f"{code}\0{status}\0{stdout}".encode())
    if op.get("dump") and os.path.exists(op["dump"]):
        with open(op["dump"], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("results")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here (JSON lines)")
    args = parser.parse_args(argv)

    linrem = import_linrem()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = manifest["ops"]
    signal.signal(signal.SIGALRM, _alarm)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    outputs: dict[str, dict[str, dict]] = {op["id"]: {} for op in ops}
    executions = []
    passes = {"warmup": [], "plain": [], "traced": []}
    layer_passes = []
    setup = []
    # Pass 0 warms the allocator and the interpreter's specialised code; its
    # outputs are checked like any other but its timings are not reported.
    start = perf_counter()
    pass_no = 0
    while True:
        traced = bool(tracer) and pass_no % 2 == 0 and pass_no > 0
        kind = "warmup" if pass_no == 0 else "traced" if traced else "plain"
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        gc.collect()
        t_pass = perf_counter()
        for op in ops:
            t_ref = perf_counter()
            reference()
            ref = perf_counter() - t_ref
            seconds, code, stdout, status, layer = run_op(linrem, op, tracer if traced else None)
            key = digest_of(op, code, stdout, status)
            outputs[op["id"]].setdefault(key, {"exit": code, "stdout": stdout, "status": status})
            executions.append({"op": op["id"], "pass": kind, "pass_no": pass_no, "ref": ref,
                               "seconds": seconds, "stopped": status == "deadline",
                               "digest": key, "layer": layer})
        passes[kind].append(perf_counter() - t_pass)
        if traced:
            tracer.uninstall()
            layer_passes.append(tracing.layer_metrics(tracer.spans, first_span))
        # Set-up samples are spread over the run, between passes.
        if not tracer:
            setup += [measure_setup(manifest["files"]) for _ in range(SETUP_PER_GAP)]
        pass_no += 1
        done = len(passes["plain"]) >= (2 if tracer else MIN_PASSES)
        if tracer:
            done = done and len(passes["traced"]) >= 2 and traced
        if done and perf_counter() - start >= args.seconds:
            break

    if tracer and args.spans:
        tracer.write(args.spans)
    results = {
        "passes": passes,
        "executions": executions,
        "outputs": outputs,
        "layer_passes": layer_passes,
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
