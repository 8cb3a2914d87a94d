"""Spans around linrem's public functions, recorded from outside the package.

`Tracer.install` replaces every public function of the traced modules,
under every name a linrem module binds it to, with a wrapper that records
a span: name, layer (the defining module), start, end, parent span and
operation id. Generator functions get a span whose busy time is the time
spent inside `next`, so the caller's work between items is not charged to
them. Spans stay in memory until the caller writes them out.

`field` is not traced: its calls are per tuple, and wrapping them would
distort the callers that own them. For the same reason the per-edge
stream `iter_host_edges`, the per-subset `subset_spans_copy` and
`mat_vec` (called per copy through `LinearSystem.is_solution`) are left
to the spans of their callers.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from time import perf_counter

TRACED = ("linsys", "hrep", "solutions", "verify", "behrend")
LAYERS = ("cli",) + TRACED
UNTRACED = {"iter_host_edges", "subset_spans_copy", "mat_vec"}
SUBSET_CAP = 500_000  # verify.enumerate_copies default


class Span:
    __slots__ = ("name", "layer", "op", "parent", "start", "end", "busy", "error", "note", "items")

    def __init__(self, name, layer, op, parent, note):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.note = note
        self.start = perf_counter()
        self.end = None
        self.busy = 0.0
        self.error = None
        self.items = None

    def as_dict(self, idx):
        return {
            "id": idx, "name": self.name, "layer": self.layer, "op": self.op,
            "parent": self.parent, "start": self.start, "end": self.end,
            "busy": self.busy, "error": self.error, "items": self.items,
        }


# Small facts taken from the arguments at call time, for the computed counts.
def _note_count(ns, sets, mode="structured", guard=None):
    return (ns, sets, mode)


def _note_mode(system, sets, mode="per-set-max", *args, **kw):
    return mode


def _note_enumerate(host, mode="per-part", *args, **kw):
    return (mode, host.n, host.k)


def _note_edge_equation(host, *args, **kw):
    return host.ell * host.n ** host.r


def _note_values(values, *args, **kw):
    return values


def _note_copies(host, copies, *args, **kw):
    return len(copies)


NOTES = {
    "solutions.count_solutions": _note_count,
    "solutions.plan_removal": _note_mode,
    "solutions.removal_distance": _note_mode,
    "verify.enumerate_copies": _note_enumerate,
    "verify.check_edge_equation": _note_edge_equation,
    "behrend.count_ap3": _note_values,
    "solutions.min_copy_hitting_set": _note_copies,
}

RESULT_SIZE = {"hrep.build_host": lambda host: len(host.records), "verify.enumerate_copies": len}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self._patched: list[tuple[object, str, object]] = []

    # Span bookkeeping ------------------------------------------------------

    def begin(self, name, layer, note=None):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, layer, self.op, parent, note))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def finish(self, idx, error=None):
        span = self.spans[idx]
        span.end = perf_counter()
        span.busy = span.end - span.start
        span.error = error
        self.stack.pop()

    # Wrapping --------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        note_of = NOTES.get(name)
        size_of = RESULT_SIZE.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = tracer.stack[-1] if tracer.stack else None
                span = Span(name, layer, tracer.op, parent, None)
                tracer.spans.append(span)
                idx = len(tracer.spans) - 1
                span.items = 0
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        tracer.stack.append(idx)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            span.error = type(exc).__name__
                            raise
                        finally:
                            span.busy += perf_counter() - t0
                            tracer.stack.pop()
                        span.items += 1
                        yield item
                finally:
                    span.end = perf_counter()
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, layer, note_of(*args, **kwargs) if note_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.finish(idx, type(exc).__name__)
                raise
            tracer.finish(idx)
            if size_of is not None:
                tracer.spans[idx].items = size_of(result)
            return result

        return wrapper

    def install(self):
        """Wrap the traced functions under every linrem name bound to them."""
        wrapped = {}
        for modname in TRACED:
            mod = sys.modules[f"linrem.{modname}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    wrapped[fn] = self._wrap(fn, f"{modname}.{attr}", modname)
        for modname, mod in list(sys.modules.items()):
            if modname != "linrem" and not modname.startswith("linrem."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def innermost_error(self, first):
        """Layer of the deepest span since index `first` that raised, or None."""
        for span in reversed(self.spans[first:]):
            if span.error is not None and span.layer in LAYERS:
                return span.layer
        return None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(idx)) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one pass.


def _live_tuples(note):
    """Tuples the count walks: live free columns (structured) or all columns (naive)."""
    ns, sets, mode = note
    sizes = [len(s) for s in ns.permute_family(sets).sets]
    if mode == "naive":
        return math.prod(sizes)
    free = ns.free_count
    live = {j for row in ns.base.rows for j in range(free) if row[j]}
    return math.prod(sizes[j] for j in live)


def _naive_subsets(note):
    _, n, k = note
    total = math.comb(n * k, k)
    return total if total <= SUBSET_CAP else n**k


def layer_metrics(all_spans, first=0):
    """Busy times, counts and rates per layer for the spans from index `first` on."""
    spans = {idx: all_spans[idx] for idx in range(first, len(all_spans))}
    children: dict[int, float] = {}
    for span in spans.values():
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.busy
    self_time = {layer: 0.0 for layer in LAYERS}
    for idx, span in spans.items():
        if span.layer in self_time:
            self_time[span.layer] += span.busy - children.get(idx, 0.0)

    by_name: dict[str, list[Span]] = {}
    for span in spans.values():
        by_name.setdefault(span.name, []).append(span)

    def busy(name, keep=lambda s: True):
        return sum(s.busy for s in by_name.get(name, ()) if keep(s))

    def items(name):
        return sum(s.items or 0 for s in by_name.get(name, ()))

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    removal_names = ("solutions.plan_removal", "solutions.removal_distance")
    in_removal = set()
    outer_removal = []
    for idx, span in spans.items():
        if span.parent in in_removal:
            in_removal.add(idx)
        elif span.name in removal_names:
            in_removal.add(idx)
            outer_removal.append(span)

    naive = lambda s: s.note[0] == "naive"
    per_part = lambda s: s.note[0] != "naive"
    counts = [s for s in by_name.get("solutions.count_solutions", ()) if s.error is None]
    count_tuples = sum(_live_tuples(s.note) for s in counts)
    pairs = sum(len(set(s.note)) ** 2 for s in by_name.get("behrend.count_ap3", ()))
    edges = items("hrep.build_host")
    copies = items("verify.enumerate_copies")
    metrics = {
        "hrep.build_host_s": busy("hrep.build_host"),
        "hrep.coefficients_s": busy("hrep.build_coefficients"),
        "hrep.export_s": busy("hrep.export_host"),
        "hrep.edges": edges,
        "hrep.us_per_edge": ratio(busy("hrep.build_host"), edges, 1e6),
        "hrep.copies_for_solution_s": busy("hrep.copies_for_solution"),
        "verify.enumerate_s": busy("verify.enumerate_copies", per_part),
        "verify.copies": copies,
        "verify.us_per_copy": ratio(busy("verify.check_representation"), copies, 1e6),
        "verify.per_solution_s": busy("verify.check_per_solution"),
        "verify.copy_structure_s": busy("verify.check_copy_structure"),
        "verify.edge_equation_s": busy("verify.check_edge_equation"),
        "verify.edge_equation_tuples": sum(s.note for s in by_name.get("verify.check_edge_equation", ())),
        "verify.simple_s": busy("verify.check_simple"),
        "verify.edge_counts_s": busy("verify.check_edge_counts"),
        "verify.naive_s": busy("verify.enumerate_copies", naive),
        "verify.naive_subsets": sum(_naive_subsets(s.note)
                                    for s in by_name.get("verify.enumerate_copies", ()) if naive(s)),
        "solutions.count_s": busy("solutions.count_solutions"),
        "solutions.count_tuples": count_tuples,
        "solutions.ns_per_tuple": ratio(sum(s.busy for s in counts), count_tuples, 1e9),
        "solutions.iter_solutions_s": busy("solutions.iter_solutions"),
        "solutions.removal_pm_s": sum(s.busy for s in outer_removal if s.note == "per-set-max"),
        "solutions.removal_total_s": sum(s.busy for s in outer_removal if s.note == "total"),
        "solutions.removal_solutions": sum(
            s.items or 0 for idx, s in spans.items()
            if s.name == "solutions.iter_solutions" and idx in in_removal),
        "solutions.hitting_set_s": busy("solutions.min_copy_hitting_set"),
        "solutions.hitting_copies": sum(s.note for s in by_name.get("solutions.min_copy_hitting_set", ())),
        "solutions.translate_s": busy("solutions.translate_edge_deletion"),
        "solutions.epsdelta_s": busy("solutions.epsdelta_scan"),
        "linsys.parse_s": busy("linsys.parse_system"),
        "linsys.normalize_s": busy("linsys.normalize"),
        "linsys.reduce_s": busy("linsys.reduce_degenerate"),
        "linsys.reduce_calls": len(by_name.get("linsys.reduce_degenerate", ())),
        "behrend.max_ap3_free_s": busy("behrend.max_ap3_free"),
        "behrend.sphere_s": busy("behrend.behrend_sphere"),
        "behrend.lift_s": busy("behrend.build_lower_bound_instance"),
        "behrend.count_ap3_s": busy("behrend.count_ap3"),
        "behrend.pairs": pairs,
        "behrend.ns_per_pair": ratio(busy("behrend.count_ap3"), pairs, 1e9),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics
