"""Undirected multigraph of class nodes and typed dependency edges.

Nodes carry dense integer ids backed by a stable fully-qualified-name table.
Parallel edges are preserved; self-loops are dropped at construction.
"""

from __future__ import annotations

from collections import Counter, deque
from enum import Enum
from types import MappingProxyType
from typing import Hashable, Iterable, KeysView, Mapping, Sequence

from .errors import GraphError

Label = Hashable


class DependencyKind(Enum):
    INHERITANCE = "inheritance"
    FIELD = "field"
    PARAMETER = "parameter"
    RETURN = "return"


class Partition:
    """Total assignment of node ids 0..n-1 to labels, stored as one tuple
    indexed by node id; blocks are derived lazily and cached."""

    def __init__(self, labels: Iterable[Label]):
        """Partition whose i-th label is the label of node i."""
        if isinstance(labels, Mapping):
            raise GraphError("partition labels are given in node order, "
                             "not as a mapping")
        self._labels = tuple(labels)
        self._blocks: Mapping[Label, frozenset[int]] | None = None

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    def label_of(self, node: int) -> Label:
        return self._labels[node]

    @property
    def blocks(self) -> Mapping[Label, frozenset[int]]:
        """Read-only label -> member nodes, labels in order of their
        smallest node."""
        if self._blocks is None:
            acc: dict[Label, list[int]] = {}
            for node, label in enumerate(self._labels):
                acc.setdefault(label, []).append(node)
            self._blocks = MappingProxyType(
                {lbl: frozenset(nodes) for lbl, nodes in acc.items()})
        return self._blocks

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def nodes(self) -> range:
        return range(len(self._labels))

    def label_set(self) -> KeysView[Label]:
        return self.blocks.keys()

    def block_sizes(self) -> list[int]:
        return sorted(Counter(self._labels).values())

    def relabel_dense(self) -> "Partition":
        """Map labels to 0..k-1 in order of each block's smallest node id."""
        remap: dict[Label, int] = {}
        for label in self._labels:
            remap.setdefault(label, len(remap))
        return Partition(remap[label] for label in self._labels)

    def covers(self, graph: "ClassGraph") -> bool:
        return len(self._labels) == graph.n_nodes

    def same_blocks(self, other: "Partition") -> bool:
        """True when both partitions induce the same grouping, labels aside."""
        return self.relabel_dense() == other.relabel_dense()

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"Partition({self.n_blocks} blocks, {len(self)} nodes)"


def modularity_numerator(graph: "ClassGraph", partition: Partition) -> int:
    """Exact integer numerator of Q over the denominator 4*m^2.

    Q = sum_c (l_c/m - (d_c/2m)^2) = [sum_c (4*m*l_c - d_c^2)] / (4*m^2),
    where l_c counts intra-community edges (with multiplicity) and d_c sums
    member degrees. Exact integers make tie handling in the detectors stable.
    """
    labels = partition.labels
    m = graph.m
    intra: Counter = Counter()
    deg_sum: Counter = Counter()
    for label, k in zip(labels, graph.degree):
        deg_sum[label] += k
    for u, v, _ in graph.edges:
        if labels[u] == labels[v]:
            intra[labels[u]] += 1
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

    def multiplicity(self, u: int, v: int) -> int:
        return self._adj[u].get(v, 0)

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
        for endpoint in (src, dst):
            if endpoint not in index:
                raise GraphError(f"dependency endpoint {endpoint!r} not in class list")
        if src == dst:
            continue
        edges.append((index[src], index[dst], kind))
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


def connected_components(graph: ClassGraph) -> Partition:
    """Label every node with the index of its connected component."""
    nodes = range(graph.n_nodes)
    comp = component_labels(graph._adj, nodes)
    return Partition(comp[u] for u in nodes)


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
