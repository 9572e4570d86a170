"""Run one depnet command in-process with spans around every layer's calls.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID depnet-args...

The tracer imports depnet, replaces each function named in LAYERS by a
wrapper in every depnet module that binds it, calls `depnet.cli.main` with
the arguments, and on exit writes the spans it kept in memory to SPANS_JSON.
A span is [name, start, end, parent index or None, run id, counts]; the
counts come from the wrapped call's arguments and return value. Computing
them is timed in a `trace.count` span of its own, so that it is charged to
no layer. depnet itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings

# Functions traced per layer; a layer is a module of the depnet package.
LAYERS = {
    "headers": ("tokenize", "parse_class_headers"),
    "ingest": ("parse_corpus", "resolve_dependencies", "load_edge_list",
               "write_edge_list", "load_partition", "write_partition",
               "package_partition"),
    "graph": ("build_graph", "remove_isolated", "collapse_to_weighted"),
    "detect": ("detect_eb", "detect_mo", "detect_lp", "refine_packages"),
    "metrics": ("run_batch", "modularity", "modularity_numerator", "nmi",
                "split_disconnected", "size_distribution", "fit_power_law"),
    "abstract": ("community_network", "export"),
    "report": ("build_report", "dump_report"),
    "cli": ("main",),
}


def _resolve_counts(args, kwargs, result) -> dict:
    """References the resolver looks up, and the dependencies it keeps."""
    from depnet.ingest import ResolveOptions

    decls = args[0] if args else kwargs["decls"]
    opts = args[1] if len(args) > 1 else kwargs.get("opts", ResolveOptions())
    refs = 0
    for decl in decls:
        buckets = [decl.supertypes, decl.field_types, decl.param_types,
                   decl.return_types]
        if opts.include_constructors:
            buckets.append(decl.ctor_param_types)
        refs += sum(len(ref.flatten(opts.include_type_arguments))
                    for bucket in buckets for ref in bucket)
    return {"refs": refs, "deps": len(result[1])}


def _mo_counts(args, kwargs, result) -> dict:
    dendrogram = result[1]
    merges = len(dendrogram.levels) - 1
    return {"merges": merges,
            "merges_past_best": merges - dendrogram.best_index}


COUNTS = {
    "headers.tokenize": lambda a, k, r: {"tokens": len(r)},
    "headers.parse_class_headers": lambda a, k, r: {
        "decls": len(r), "bytes": len(a[0].encode("utf-8"))},
    "ingest.resolve_dependencies": _resolve_counts,
    "graph.remove_isolated": lambda a, k, r: {"nodes": r.n_nodes, "edges": r.m},
    "graph.collapse_to_weighted": lambda a, k, r: {"collapsed_edges": r.n_edges},
    "detect.detect_eb": lambda a, k, r: {"levels": len(r[1].levels)},
    "detect.detect_mo": _mo_counts,
    "report.dump_report": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
}
# Label propagation reports a sweep-cap hit only as a RuntimeWarning.
CATCHES_WARNINGS = {"detect.detect_lp", "detect.refine_packages"}
# Name of the spans that time the tracer's counting; they belong to no layer.
COUNT_SPAN = "trace.count"


class Tracer:
    """Keeps spans in memory; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        catch = name in CATCHES_WARNINGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.run_id, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            caught: list = []
            span[1] = time.perf_counter()
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if catch or count:
                # The tracer's own work runs inside the parent's span; a span
                # of its own keeps it out of the parent's self time.
                own = [COUNT_SPAN, time.perf_counter(), 0.0, parent,
                       self.run_id, {}]
                if catch:
                    span[5]["cap_hits"] = sum(
                        issubclass(w.category, RuntimeWarning) for w in caught)
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category,
                                               w.filename, w.lineno)
                if count:
                    span[5].update(count(args, kwargs, result))
                own[2] = time.perf_counter()
                self.spans.append(own)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in each depnet module that binds it."""
        modules = [importlib.import_module(f"depnet.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("depnet"))
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"depnet.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    cli = importlib.import_module("depnet.cli")
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as stream:
            json.dump(tracer.spans, stream)


if __name__ == "__main__":
    sys.exit(main())
