"""Undirected multigraph of class nodes and typed dependency edges.

Nodes carry dense integer ids backed by a stable fully-qualified-name table.
Parallel edges are preserved; self-loops are dropped at construction.
"""

from __future__ import annotations

from collections import Counter, deque
from enum import Enum
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import GraphError

Label = Hashable
# A partition: the label of node i at index i.
Partition = tuple[Label, ...]


class DependencyKind(Enum):
    INHERITANCE = "inheritance"
    FIELD = "field"
    PARAMETER = "parameter"
    RETURN = "return"


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
    for label, k in zip(partition, graph.degree):
        deg_sum[label] += k
    for u, v, _ in graph.edges:
        if partition[u] == partition[v]:
            intra[partition[u]] += 1
    return sum(4 * m * intra[c] - deg_sum[c] ** 2 for c in deg_sum)


class ClassGraph:
    """Immutable undirected multigraph. Edges are (u, v, kind) with u < v."""

    def __init__(self, fqns: Sequence[str], edges: Iterable[tuple[int, int, DependencyKind]]):
        self._fqns = tuple(fqns)
        if len(set(self._fqns)) != len(self._fqns):
            raise GraphError("duplicate node fqns")
        self._index = {fqn: i for i, fqn in enumerate(self._fqns)}
        n = len(self._fqns)
        norm = []
        degree = [0] * n
        # Exact dicts, not Counters: EB sums floats in the iteration order of
        # sets built from these maps, and CPython lays out a set built from an
        # exact dict differently from one built from a dict subclass.
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for u, v, kind in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            if u > v:
                u, v = v, u
            norm.append((u, v, kind))
            degree[u] += 1
            degree[v] += 1
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
        self._edges = tuple(norm)
        self._degree = tuple(degree)
        self._adj = tuple(adj)

    @property
    def fqns(self) -> tuple[str, ...]:
        return self._fqns

    @property
    def edges(self) -> tuple[tuple[int, int, DependencyKind], ...]:
        return self._edges

    @property
    def n_nodes(self) -> int:
        return len(self._fqns)

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def n_edges(self) -> int:
        """Adjacent node pairs: the edge count once parallel edges merge."""
        return sum(map(len, self._adj)) // 2

    @property
    def degree(self) -> tuple[int, ...]:
        return self._degree

    def id_of(self, fqn: str) -> int:
        try:
            return self._index[fqn]
        except KeyError:
            raise GraphError(f"unknown class fqn {fqn!r}") from None

    def fqn_of(self, node: int) -> str:
        return self._fqns[node]

    def neighbors(self, node: int) -> dict[int, int]:
        """Neighbor -> edge multiplicity: the node's edges with each bundle
        of parallel edges collapsed into one weighted edge. Read-only."""
        return self._adj[node]

    def __repr__(self) -> str:
        return f"ClassGraph({self.n_nodes} nodes, {self.m} edges)"


def build_graph(
    class_fqns: Sequence[str],
    dependencies: Iterable[tuple[str, str, DependencyKind]],
) -> ClassGraph:
    """Build a multigraph from fqn-keyed dependency tuples.

    Parallel edges are kept; self-referential dependencies are silently dropped.
    ClassGraph rejects duplicate fqns.
    """
    fqns = tuple(class_fqns)
    if not fqns:
        raise GraphError("empty class list")
    index = {fqn: i for i, fqn in enumerate(fqns)}
    edges = []
    for src, dst, kind in dependencies:
        u = index.get(src)
        v = index.get(dst)
        if u is None or v is None:
            endpoint = src if u is None else dst
            raise GraphError(f"dependency endpoint {endpoint!r} not in class list")
        if u != v:
            edges.append((u, v, kind))
    return ClassGraph(fqns, edges)


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
    """Subgraph on node_set; keeps exactly the edges with both endpoints inside."""
    nodes = sorted(set(node_set))
    for node in nodes:
        if not (0 <= node < graph.n_nodes):
            raise GraphError(f"unknown node id {node}")
    remap = {old: new for new, old in enumerate(nodes)}
    fqns = [graph.fqn_of(i) for i in nodes]
    edges = [
        (remap[u], remap[v], k)
        for u, v, k in graph.edges
        if u in remap and v in remap
    ]
    return ClassGraph(fqns, edges)


def collapse_to_weighted(graph: ClassGraph) -> ClassGraph:
    """The graph itself: its neighbour maps already merge each bundle of
    parallel edges into one edge weighted by multiplicity. Kept as a name
    because perfbench/tracer.py wraps it to count the merged edges."""
    return graph
