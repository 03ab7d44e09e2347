"""The traced run: per-layer metrics from cProfile plus a few counting
wrappers.  Everything is recorded from this directory; nothing in ``src/``
is changed.

A traced run profiles exactly the first ``TRACE_ROUNDS`` rounds of its
workload, so that its counts repeat for a given seed and it ends well
within three minutes under the profiler.  Its ``tb`` calls run through
``main()`` in this process, so that the cli and render layers show up in
the profile; the sentinel inputs make every layer appear in every
workload's trace.
"""

from __future__ import annotations

import cProfile
import fractions
import importlib
import inspect
import json
import os
import pstats
import statistics
import sys
import time

import workloads

TRACE_ROUNDS = 4
LAYERS = ("circle", "lamination", "diagram", "element", "membership",
          "thompson", "words", "render", "cli")

# metric -> (module, attribute path) of the function whose calls are counted
CALLS = {
    "circle.eval_fraction.calls": ("circle", "PLCircleMap.eval_fraction"),
    "circle.lifted.calls": ("circle", "PLCircleMap.lifted"),
    "circle.PLCircleMap.calls": ("circle", "PLCircleMap.__init__"),
    "lamination.is_standard.calls": ("lamination", "is_standard"),
    "lamination.arc_from_endpoints.calls": ("lamination", "arc_from_endpoints"),
    "lamination.ancestors.calls": ("lamination", "ancestors"),
    "diagram.expand_at.calls": ("diagram", "ArcDiagram.expand_at"),
    "diagram.leaves.calls": ("diagram", "ArcDiagram.leaves"),
    "diagram.sibling_triples.calls": ("diagram", "sibling_triples"),
    "diagram.collapse_at.calls": ("diagram", "collapse_at"),
    "diagram.common_refinement.calls": ("diagram", "common_refinement"),
    "thompson.tp_compose.calls": ("thompson", "tp_compose"),
    "thompson.tp_reduce.calls": ("thompson", "tp_reduce"),
    "thompson.tau.calls": ("thompson", "tau"),
    "words._decompose.calls": ("words", "_decompose"),
}
# metric -> function whose mean inclusive time per call is reported
MEAN_MS = {
    "element.compose.ms": ("element", "compose"),
    "element.reduce.ms": ("element", "reduce"),
    "element.to_pl.ms": ("element", "Element.to_pl"),
    "membership.recognize.ms": ("membership", "recognize"),
    "thompson.factor_t.ms": ("thompson", "factor_t"),
    "words.decompose.ms": ("words", "decompose"),
    "render.render_element.ms": ("render", "render_element"),
}

# name, unit, better: the order in which the traced run prints them
PER_LAYER = [
    ("fractions.self_ms", "ms", "lower"),
    ("circle.self_ms", "ms", "lower"),
    ("circle.eval_fraction.calls", "count", "lower"),
    ("circle.lifted.calls", "count", "lower"),
    ("circle.PLCircleMap.calls", "count", "lower"),
    ("lamination.self_ms", "ms", "lower"),
    ("lamination.is_standard.calls", "count", "lower"),
    ("lamination.arc_from_endpoints.calls", "count", "lower"),
    ("lamination.ancestors.calls", "count", "lower"),
    ("lamination.cache_hit_ratio", "ratio", "higher"),
    ("lamination.cache_entries", "count", "lower"),
    ("diagram.self_ms", "ms", "lower"),
    ("diagram.expand_at.calls", "count", "lower"),
    ("diagram.leaves.calls", "count", "lower"),
    ("diagram.sibling_triples.calls", "count", "lower"),
    ("diagram.collapse_at.calls", "count", "lower"),
    ("diagram.common_refinement.calls", "count", "lower"),
    ("element.self_ms", "ms", "lower"),
    ("element.compose.ms", "ms", "lower"),
    ("element.reduce.ms", "ms", "lower"),
    ("element.collapses_per_reduce", "count/call", "lower"),
    ("element.to_pl.ms", "ms", "lower"),
    ("membership.self_ms", "ms", "lower"),
    ("membership.recognize.ms", "ms", "lower"),
    ("membership.refinements_per_recognize", "count/call", "lower"),
    ("membership.refine_yield", "ratio", "higher"),
    ("thompson.self_ms", "ms", "lower"),
    ("thompson.tp_compose.calls", "count", "lower"),
    ("thompson.tp_reduce.calls", "count", "lower"),
    ("thompson.tau.calls", "count", "lower"),
    ("thompson.factor_t.ms", "ms", "lower"),
    ("words.self_ms", "ms", "lower"),
    ("words.decompose.ms", "ms", "lower"),
    ("words._decompose.calls", "count", "lower"),
    ("words.free_reduce.in_letters", "count", "lower"),
    ("words.free_reduce.out_letters", "count", "lower"),
    ("render.self_ms", "ms", "lower"),
    ("render.render_element.ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
]


def _function_key(kernel, module, path):
    """The (file, line, name) label cProfile gives the function, or None."""
    obj = getattr(kernel, module)
    try:
        for part in path.split("."):
            obj = getattr(obj, part)
        code = inspect.unwrap(obj).__code__
    except AttributeError:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


def _rebind(kernel, original, replacement):
    """Point every kernel-module name bound to ``original`` at ``replacement``."""
    for name in LAYERS:
        module = getattr(kernel, name)
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Counters:
    """Counts that cProfile cannot give: refinements inside ``recognize`` and
    the letters going into and out of ``free_reduce``."""

    def __init__(self, kernel):
        self.expansions = 0
        self.recognize_calls = 0
        self.refinements = 0
        self.result_leaves = 0
        self.stop_leaves = 0
        self.letters_in = 0
        self.letters_out = 0
        arc_diagram = kernel.diagram.ArcDiagram
        expand_at = arc_diagram.expand_at
        recognize = kernel.membership.recognize
        free_reduce = kernel.words.free_reduce

        def counted_expand_at(diagram, leaf_index):
            self.expansions += 1
            return expand_at(diagram, leaf_index)

        def counted_recognize(pl):
            before = self.expansions
            self.recognize_calls += 1
            try:
                result = recognize(pl)
            finally:
                self.refinements += self.expansions - before
            # refinement starts from the 4 base leaves; each expansion adds 2
            self.stop_leaves += 4 + 2 * (self.expansions - before)
            self.result_leaves += result.leaf_count()
            return result

        def counted_free_reduce(word):
            word = list(word)
            result = free_reduce(word)
            self.letters_in += len(word)
            self.letters_out += len(result)
            return result

        arc_diagram.expand_at = counted_expand_at
        _rebind(kernel, recognize, counted_recognize)
        _rebind(kernel, free_reduce, counted_free_reduce)


def _lamination_caches(kernel):
    """(hits, misses, entries) summed over the lamination module's caches."""
    lam = kernel.lamination
    infos = [obj.cache_info() for obj in vars(lam).values()
             if callable(getattr(obj, "cache_info", None))
             and getattr(obj, "__module__", None) == lam.__name__]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


def _import_ms() -> float:
    """Median time of a fresh in-process import of basilica.cli."""
    times = []
    for _ in range(3):
        for name in [m for m in sys.modules if m == "basilica" or m.startswith("basilica.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("basilica.cli")
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def traced_run(kernel, workload, run_rounds):
    """Profile the first rounds of the workload; return their log and the
    per-layer metrics."""
    workload.tb.in_process = True
    calls = {metric: _function_key(kernel, *where) for metric, where in CALLS.items()}
    means = {metric: _function_key(kernel, *where) for metric, where in MEAN_MS.items()}
    reduce_key = means["element.reduce.ms"]
    counters = Counters(kernel)
    hits0, misses0, _ = _lamination_caches(kernel)

    profile = cProfile.Profile()
    profile.enable()
    log = run_rounds(workload, rounds=TRACE_ROUNDS)
    profile.disable()

    hits, misses, entries = _lamination_caches(kernel)
    hits, misses = hits - hits0, misses - misses0
    stats = pstats.Stats(profile).stats
    layer_of_file = {os.path.realpath(getattr(kernel, name).__file__): name for name in LAYERS}
    layer_of_file[os.path.realpath(fractions.__file__)] = "fractions"
    self_ms = dict.fromkeys(["fractions", *LAYERS], 0.0)
    seen: dict = {}
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        if filename not in seen:
            seen[filename] = layer_of_file.get(os.path.realpath(filename))
        if seen[filename]:
            self_ms[seen[filename]] += 1000 * tottime

    def ncalls(key):
        return stats[key][1] if key in stats else 0

    def mean_ms(key):
        if key not in stats or not stats[key][0]:
            return 0.0
        return 1000 * stats[key][3] / stats[key][0]

    values = {f"{layer}.self_ms": ms for layer, ms in self_ms.items()}
    values.update({metric: ncalls(key) for metric, key in calls.items()})
    values.update({metric: mean_ms(key) for metric, key in means.items()})
    reduces = stats[reduce_key][0] if reduce_key in stats else 0
    values["element.collapses_per_reduce"] = (
        values["diagram.collapse_at.calls"] / 2 / reduces if reduces else 0.0)
    values["lamination.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["lamination.cache_entries"] = entries
    c = counters
    values["membership.refinements_per_recognize"] = (
        c.refinements / c.recognize_calls if c.recognize_calls else 0.0)
    values["membership.refine_yield"] = c.result_leaves / c.stop_leaves if c.stop_leaves else 0.0
    values["words.free_reduce.in_letters"] = c.letters_in
    values["words.free_reduce.out_letters"] = c.letters_out
    values["cli.main_ms"] = workloads.median_ms(log, "call")
    # the end-to-end figures under tracing, for the overhead comparison
    traced = {name: value for name, (value, _) in workloads.metrics(log).items()}
    print("traced end-to-end: " + json.dumps(traced), file=sys.stderr)
    values["cli.import_ms"] = _import_ms()
    return log, {name: (values[name], unit) for name, unit, _ in PER_LAYER}
