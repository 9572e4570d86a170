"""Undirected multigraph of class nodes, held as weighted neighbour maps.

Nodes carry dense integer ids backed by a stable fully-qualified-name table.
Each node maps every neighbour to the multiplicity of the bundle of parallel
edges between them, through a read-only view. `build_graph` drops
self-references, and `ClassGraph` rejects them. The kind of a dependency is
not kept: it matters only in the edge files of `ingest`.
"""

from __future__ import annotations

from collections import Counter, deque
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import GraphError

Label = Hashable
# A partition: the label of node i at index i.
Partition = tuple[Label, ...]


def relabel_dense(labels: Iterable[Label]) -> tuple[int, ...]:
    """Map labels to 0..k-1 in order of each block's smallest node id."""
    remap: dict[Label, int] = {}
    return tuple(remap.setdefault(label, len(remap)) for label in labels)


def check_cover(graph: "ClassGraph", partition: Partition) -> None:
    """GraphError unless the partition has one label per node of the graph."""
    if len(partition) != graph.n_nodes:
        raise GraphError("partition does not cover the graph's node set")


def modularity_numerator(graph: "ClassGraph", partition: Partition) -> int:
    """Exact integer numerator of Q over the denominator 4*m^2.

    Q = sum_c (l_c/m - (d_c/2m)^2) = [sum_c (4*m*l_c - d_c^2)] / (4*m^2),
    where l_c counts intra-community edges (with multiplicity) and d_c sums
    member degrees. Exact integers make tie handling in the detectors stable.
    """
    m = graph.m
    intra: Counter = Counter()
    deg_sum: Counter = Counter()
    for u, (label, k) in enumerate(zip(partition, graph.degree)):
        deg_sum[label] += k
        for v, mult in graph.neighbors(u).items():
            if u < v and partition[v] == label:
                intra[label] += mult
    return sum(4 * m * intra[c] - deg_sum[c] ** 2 for c in deg_sum)


class ClassGraph:
    """Immutable undirected multigraph: the fqn table, and one map per node
    from each neighbour to the multiplicity of their parallel edges."""

    def __init__(self, fqns: Sequence[str],
                 neighbors: Iterable[Mapping[int, int]]):
        self._fqns = tuple(fqns)
        if len(set(self._fqns)) != len(self._fqns):
            raise GraphError("duplicate node fqns")
        adj = tuple(map(dict, neighbors))
        n = len(self._fqns)
        if len(adj) != n:
            raise GraphError(f"{len(adj)} neighbour maps for {n} nodes")
        for u, nbrs in enumerate(adj):
            for v, mult in nbrs.items():
                if not 0 <= v < n or v == u or mult < 1 \
                        or adj[v].get(u) != mult:
                    raise GraphError(f"no multigraph has node {u} with "
                                     f"neighbour {v} of multiplicity {mult}")
        self._adj = tuple(map(MappingProxyType, adj))
        self._degree = tuple(sum(nbrs.values()) for nbrs in adj)
        self._m = sum(self._degree) // 2

    @property
    def fqns(self) -> tuple[str, ...]:
        return self._fqns

    @property
    def n_nodes(self) -> int:
        return len(self._fqns)

    @property
    def m(self) -> int:
        """The edge count, each parallel edge counted."""
        return self._m

    @property
    def n_edges(self) -> int:
        """Adjacent node pairs: the edge count once parallel edges merge."""
        return sum(map(len, self._adj)) // 2

    @property
    def degree(self) -> tuple[int, ...]:
        return self._degree

    def neighbors(self, node: int) -> Mapping[int, int]:
        """Neighbor -> edge multiplicity: the node's edges with each bundle
        of parallel edges collapsed into one weighted edge, in the order in
        which each neighbour first appeared. A read-only view."""
        return self._adj[node]

    def __repr__(self) -> str:
        return f"ClassGraph({self.n_nodes} nodes, {self.m} edges)"


def build_graph(
    class_fqns: Sequence[str],
    dependencies: Iterable[tuple[str, str, str]],
) -> ClassGraph:
    """Build a multigraph from (source fqn, target fqn, kind) dependencies.

    Parallel edges are kept and kinds ignored; self-referential dependencies
    are silently dropped. Each node's neighbours are in the order of their
    first dependency with it. ClassGraph rejects duplicate fqns.
    """
    fqns = tuple(class_fqns)
    if not fqns:
        raise GraphError("empty class list")
    index = {fqn: i for i, fqn in enumerate(fqns)}
    adj: list[dict[int, int]] = [{} for _ in fqns]
    for src, dst, _ in dependencies:
        u = index.get(src)
        v = index.get(dst)
        if u is None or v is None:
            endpoint = src if u is None else dst
            raise GraphError(f"dependency endpoint {endpoint!r} not in class list")
        if u != v:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
    return ClassGraph(fqns, adj)


def remove_isolated(graph: ClassGraph) -> ClassGraph:
    """Drop all degree-zero nodes, re-densifying ids; idempotent."""
    keep = [i for i in range(graph.n_nodes) if graph.degree[i] >= 1]
    if len(keep) == graph.n_nodes:
        return graph
    return induced_subgraph(graph, keep)


def component_labels(
    adj: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    starts: Iterable[int],
) -> dict[int, int]:
    """Component index of every node reachable from `starts` by BFS over
    `adj` (node -> neighbours); indices follow the order of the starts."""
    labels: dict[int, int] = {}
    comp = 0
    for start in starts:
        if start in labels:
            continue
        labels[start] = comp
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in labels:
                    labels[v] = comp
                    queue.append(v)
        comp += 1
    return labels


def induced_subgraph(graph: ClassGraph, node_set: Iterable[int]) -> ClassGraph:
    """Subgraph on node_set; keeps exactly the edges with both endpoints
    inside, and each kept node's neighbours in their order."""
    nodes = sorted(set(node_set))
    for node in nodes:
        if not (0 <= node < graph.n_nodes):
            raise GraphError(f"unknown node id {node}")
    remap = {old: new for new, old in enumerate(nodes)}
    fqns = [graph.fqns[u] for u in nodes]
    neighbors = [{remap[v]: mult for v, mult in graph.neighbors(u).items()
                  if v in remap} for u in nodes]
    return ClassGraph(fqns, neighbors)


def collapse_to_weighted(graph: ClassGraph) -> ClassGraph:
    """The graph itself: its neighbour maps already merge each bundle of
    parallel edges into one edge weighted by multiplicity. Kept as a name
    because perfbench/tracer.py wraps it to count the merged edges."""
    return graph
