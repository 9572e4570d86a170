"""Class dependency networks: extraction, community detection, metrics,
package refinement, and community-abstraction export.

`import depnet` loads no layer: each public name is imported from its home
module the first time it is used (PEP 562). Each `depnet` command likewise
imports only the layers it runs, so one that never detects communities
never loads the detectors.
"""

import importlib

__version__ = "0.1.0"

# The `depnet abstract --format` choices; here, so that the CLI can offer
# them without loading the abstraction layer.
EXPORT_FORMATS = ("dot", "graphml", "json")

# The public names of each home module.
_HOMES = {
    "abstract": ("CommunityGraph", "community_network", "export",
                 "largest_components_filter"),
    "detect": ("detect_eb", "detect_lp", "detect_mo", "refine_packages"),
    "errors": ("DepnetError", "FormatError", "GraphError", "ParseError",
               "ResolveError", "SizeCapError"),
    "graph": ("ClassGraph", "build_graph", "collapse_to_weighted",
              "induced_subgraph", "remove_isolated"),
    "headers": ("ClassDecl", "TypeRef", "parse_class_headers"),
    "ingest": ("ResolveOptions", "load_edge_list", "load_partition",
               "package_partition", "parse_corpus", "resolve_dependencies",
               "write_edge_list", "write_partition"),
    "metrics": ("fit_power_law", "modularity", "nmi", "run_batch",
                "size_distribution", "split_disconnected"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
