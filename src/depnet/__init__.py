"""Class dependency networks: extraction, community detection, metrics,
package refinement, and community-abstraction export."""

from .abstract import (CommunityGraph, community_network, export,
                       largest_components_filter)
from .detect import (Dendrogram, detect_eb, detect_lp, detect_mo,
                     edge_betweenness, refine_packages)
from .errors import (DepnetError, FormatError, GraphError, ParseError,
                     ResolveError, SizeCapError)
from .graph import (ClassGraph, DependencyKind, Partition, build_graph,
                    collapse_to_weighted, connected_components,
                    induced_subgraph, remove_isolated)
from .headers import ClassDecl, TypeRef, parse_class_headers
from .ingest import (ResolveOptions, load_edge_list, load_partition,
                     package_partition, parse_corpus, resolve_dependencies,
                     write_edge_list, write_partition)
from .metrics import (BatchStats, SizeDistribution, fit_power_law, modularity,
                      nmi, run_batch, size_distribution, split_disconnected)

__version__ = "0.1.0"

__all__ = [
    "BatchStats", "ClassDecl", "ClassGraph", "CommunityGraph", "Dendrogram",
    "DependencyKind", "DepnetError", "FormatError", "GraphError", "ParseError",
    "Partition", "ResolveError", "ResolveOptions", "SizeCapError",
    "SizeDistribution", "TypeRef", "build_graph", "collapse_to_weighted",
    "community_network", "connected_components", "detect_eb", "detect_lp",
    "detect_mo", "edge_betweenness", "export", "fit_power_law",
    "induced_subgraph", "largest_components_filter",
    "load_edge_list", "load_partition", "modularity", "nmi",
    "package_partition", "parse_class_headers", "parse_corpus",
    "refine_packages", "remove_isolated", "resolve_dependencies",
    "run_batch", "size_distribution", "split_disconnected",
    "write_edge_list", "write_partition",
]
