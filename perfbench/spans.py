"""In-memory spans around calls into hardgraph's public functions.

The benchmark places these wrappers itself, from outside the package: each
public function is replaced at every module attribute that names it, so the
calls the program makes through its own from-imports are seen too.  A span
records its name, start, end, parent span and op id; its self time is its
duration minus the time its direct children cover (calls are sequential, so
children never overlap).  Per-node helpers (``node_metrics``, ``layer_macs``)
are counted rather than recorded, because one span per node would dwarf the
work being measured; their time still counts as child time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (home module, attribute, span name); ArchGraph methods are listed separately.
SPAN_FUNCTIONS = (
    ("cli", "build_parser", "cli.build_parser"),
    ("registry", "build", "registry.build"),
    ("harmonic", "build_model", "harmonic.build_model"),
    ("references", "build_reference", "references.build_reference"),
    ("graph_ir", "to_dot", "graph_ir.to_dot"),
    ("metrics", "model_summary", "metrics.model_summary"),
    ("metrics", "check_moc", "metrics.check_moc"),
    ("metrics", "report_csv", "metrics.report_csv"),
    ("metrics", "report_json", "metrics.report_json"),
    ("liveness", "peak_memory", "liveness.peak_memory"),
    ("liveness", "tensor_lifetimes", "liveness.tensor_lifetimes"),
    ("liveness", "timeline_csv", "liveness.timeline_csv"),
    ("latency", "model_latency", "latency.model_latency"),
    ("catalog", "validate_catalog", "catalog.validate_catalog"),
    ("catalog", "seg_gmacs", "catalog.seg_gmacs"),
)
COUNTED_FUNCTIONS = (
    ("metrics", "node_metrics", "metrics.node_metrics"),
    ("metrics", "layer_macs", "metrics.layer_macs"),
)
GRAPH_METHODS = ("infer_shapes", "to_json", "schedule")
MODULES = ("cli", "registry", "harmonic", "references", "graph_ir", "metrics",
           "liveness", "latency", "catalog")

# span names whose result is a freshly made graph; their node count is kept
GRAPH_MAKERS = ("harmonic.build_model", "references.build_reference",
                "graph_ir.ArchGraph.from_json")
BUILDERS = ("harmonic.build_model", "references.build_reference")

NAME, START, END, PARENT, OP, CHILD, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, child_s, info]
        self.counts = {}     # (op, name) -> calls of a counted function
        self.op = -1
        self._stack = []
        self._in_counted = False

    def span(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if info is not None:
                rec[INFO] = info(args, result)
            return result
        return wrapper

    def counted(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # node_metrics calls layer_macs: only the outer call's time is
            # child time of the enclosing span
            outer = not self._in_counted
            self._in_counted = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if outer:
                    self._in_counted = False
                    if stack:
                        spans[stack[-1]][CHILD] += time.perf_counter() - t0
                key = (self.op, name)
                counts[key] = counts.get(key, 0) + 1
        return wrapper

    def dump(self, path) -> None:
        doc = {"spans": self.spans,
               "counts": [[op, name, n] for (op, name), n in self.counts.items()]}
        with open(path, "w") as f:
            json.dump(doc, f)

    def merge(self, path, op: int) -> None:
        """Append the spans a traced child process dumped, as op ``op``."""
        with open(path) as f:
            doc = json.load(f)
        base = len(self.spans)
        for rec in doc["spans"]:
            rec[OP] = op
            if rec[PARENT] >= 0:
                rec[PARENT] += base
            self.spans.append(rec)
        for _, name, n in doc["counts"]:
            self.counts[(op, name)] = self.counts.get((op, name), 0) + n


def hardgraph_modules() -> dict:
    """Import hardgraph and return the modules ``install`` patches."""
    mods = {name: importlib.import_module(f"hardgraph.{name}") for name in MODULES}
    mods["hardgraph"] = importlib.import_module("hardgraph")
    return mods


def _node_count(args, result):
    return len(result.nodes)


def _nodes_evaluated(args, result):
    return len(args[0].nodes)


def install(tracer: Tracer, modules: dict):
    """Wrap every traced function at each module attribute that holds it.

    ``modules`` maps the short names in MODULES (plus "hardgraph", the
    package) to imported module objects.  Returns a function that puts the
    original functions back.
    """
    saved = []

    def rebind(original, wrapper):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    for home, attr, name in SPAN_FUNCTIONS:
        fn = getattr(modules[home], attr)
        info = _node_count if name in GRAPH_MAKERS else None
        rebind(fn, tracer.span(name, fn, info))
    for home, attr, name in COUNTED_FUNCTIONS:
        fn = getattr(modules[home], attr)
        rebind(fn, tracer.counted(name, fn))
    graph = modules["graph_ir"].ArchGraph
    for attr in GRAPH_METHODS + ("from_json",):
        saved.append((graph, attr, vars(graph)[attr]))
    for attr in GRAPH_METHODS:
        info = _nodes_evaluated if attr == "infer_shapes" else None
        setattr(graph, attr, tracer.span(f"graph_ir.ArchGraph.{attr}",
                                         vars(graph)[attr], info))
    from_json = vars(graph)["from_json"].__func__
    graph.from_json = classmethod(tracer.span("graph_ir.ArchGraph.from_json",
                                              from_json, _node_count))

    def uninstall():
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
    return uninstall


# --- per-layer metrics -------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, count_ops: int, op_depth: dict, scale: dict) -> dict:
    """Per-layer metrics, in the units BENCHMARK.json declares.

    Times are per-op medians over the ops that reach the layer (0 when no op
    of the workload does), each op's times multiplied by ``scale[op]``.
    Counts are taken over ops 0 .. count_ops-1 only (one pass of the
    sequence), so they do not depend on how many passes ran.
    """
    spans = tracer.spans
    dur, self_t = {}, {}   # name -> {op: seconds}
    for rec in spans:
        name, op = rec[NAME], rec[OP]
        d = (rec[END] - rec[START]) * scale.get(op, 1.0)
        dur.setdefault(name, {})
        dur[name][op] = dur[name].get(op, 0.0) + d
        self_t.setdefault(name, {})
        self_t[name][op] = self_t[name].get(op, 0.0) + d - rec[CHILD] * scale.get(op, 1.0)

    def ms(table, *names):
        per_op = {}
        for name in names:
            for op, s in table.get(name, {}).items():
                per_op[op] = per_op.get(op, 0.0) + s
        return 1000.0 * _median(list(per_op.values()))

    def under_builder(idx):
        p = spans[idx][PARENT]
        while p >= 0:
            if spans[p][NAME] in BUILDERS:
                return True
            p = spans[p][PARENT]
        return False

    window = [i for i, rec in enumerate(spans) if rec[OP] < count_ops]
    builds = [i for i in window if spans[i][NAME] in BUILDERS]
    build_shapes = [i for i in window if spans[i][NAME] == "graph_ir.ArchGraph.infer_shapes"
                    and under_builder(i)]
    graph_nodes = sum(spans[i][INFO] for i in window if spans[i][NAME] in GRAPH_MAKERS)
    built_nodes = sum(spans[i][INFO] for i in builds)
    schedules = sum(1 for i in window if spans[i][NAME] == "graph_ir.ArchGraph.schedule")
    node_metric_calls = sum(n for (op, name), n in tracer.counts.items()
                            if op < count_ops and name == "metrics.node_metrics")

    out = {
        "cli.run_self_ms": ms(self_t, "cli.run"),
        "cli.build_parser_ms": ms(dur, "cli.build_parser"),
        "harmonic.build_model_self_ms": ms(self_t, "harmonic.build_model"),
        "references.build_reference_self_ms": ms(self_t, "references.build_reference"),
        "graph_ir.infer_shapes_ms": ms(dur, "graph_ir.ArchGraph.infer_shapes"),
        "graph_ir.infer_shapes_calls_per_build":
            len(build_shapes) / len(builds) if builds else 0.0,
        "graph_ir.shape_evals_per_node":
            sum(spans[i][INFO] for i in build_shapes) / built_nodes if built_nodes else 0.0,
        "graph_ir.from_json_ms": ms(dur, "graph_ir.ArchGraph.from_json"),
        "graph_ir.to_json_ms": ms(dur, "graph_ir.ArchGraph.to_json"),
        "graph_ir.to_dot_ms": ms(dur, "graph_ir.to_dot"),
        "graph_ir.schedule_calls_per_op": schedules / count_ops,
        "metrics.model_summary_ms": ms(dur, "metrics.model_summary"),
        "metrics.node_metrics_calls_per_node":
            node_metric_calls / graph_nodes if graph_nodes else 0.0,
        "metrics.check_moc_ms": ms(dur, "metrics.check_moc"),
        "metrics.report_ms": ms(dur, "metrics.report_csv", "metrics.report_json"),
        "liveness.peak_memory_self_ms": ms(self_t, "liveness.peak_memory"),
        "liveness.tensor_lifetimes_ms": ms(dur, "liveness.tensor_lifetimes"),
        "liveness.timeline_csv_ms": ms(dur, "liveness.timeline_csv"),
        "latency.model_latency_self_ms": ms(self_t, "latency.model_latency"),
        "catalog.validate_catalog_ms": ms(dur, "catalog.validate_catalog"),
    }
    peak = dur.get("liveness.peak_memory", {})
    for depth in (512, 1024, 2048, 4096):
        times = [s for op, s in peak.items() if op_depth.get(op) == depth]
        out[f"liveness.peak_memory_ms.L{depth}"] = 1000.0 * _median(times)
    return out

