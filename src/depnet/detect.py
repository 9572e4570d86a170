"""Community detection: divisive edge-betweenness (EB), greedy agglomerative
modularity optimization (MO), asynchronous label propagation (LP), and
constrained label propagation for package refinement.

Every run is a pure function of (graph, seed); EB is fully deterministic.
Modularity comparisons inside the detectors use exact integer numerators over
the constant denominator 4*m^2, so ties never depend on float rounding.
"""

from __future__ import annotations

import heapq
import random
import warnings
from dataclasses import dataclass
from typing import Hashable, Iterable

from .errors import GraphError, SizeCapError
from .graph import (ClassGraph, Partition, collapse_to_weighted,
                    component_labels, modularity_numerator)

EB_DEFAULT_EDGE_CAP = 5000
LP_SWEEP_CAP = 1000  # label-propagation sweeps before giving up on a fixpoint


@dataclass(frozen=True)
class DendrogramLevel:
    n_communities: int
    q: float


@dataclass
class Dendrogram:
    """Merge/split sweep with the modularity recorded at every level."""

    levels: list[DendrogramLevel]
    best_index: int

    @property
    def best(self) -> DendrogramLevel:
        return self.levels[self.best_index]


def _edge_betweenness(
    adj: dict[int, set[int]],
    nodes: Iterable[int],
) -> dict[tuple[int, int], float]:
    """Brandes accumulation over hop-count shortest paths.

    The score of an edge is the number of unordered node pairs whose shortest
    paths traverse it, split equally among equal-length alternatives. Only
    the edges among `nodes` are scored: they must be ascending and closed
    under adjacency (whole components). Sources run in ascending id order and
    each neighbour is visited in `adj`'s set order, so every float sum is
    formed in the same order however the graph is split into calls.
    """
    nodes = list(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    # Dense relabelling: nbrs[i] lists (neighbour, edge index) slots.
    keys: list[tuple[int, int]] = []
    edge_index: dict[tuple[int, int], int] = {}
    nbrs: list[list[tuple[int, int]]] = []
    for u in nodes:
        slots = []
        for v in list(adj[u]):
            key = (u, v) if u < v else (v, u)
            e = edge_index.get(key)
            if e is None:
                e = edge_index[key] = len(keys)
                keys.append(key)
            slots.append((index[v], e))
        nbrs.append(slots)
    scores = [0.0] * len(keys)
    dist = [-1] * len(nodes)
    sigma = [0.0] * len(nodes)
    delta = [0.0] * len(nodes)
    # preds[v]: (predecessor, edge index) slots, in BFS order.
    preds: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for source in range(len(nodes)):
        dist[source] = 0
        sigma[source] = 1.0
        preds[source] = []
        order = [source]  # the BFS queue; it grows while being read
        for u in order:
            d_next = dist[u] + 1
            sigma_u = sigma[u]
            for v, e in nbrs[u]:
                d_v = dist[v]
                if d_v < 0:
                    dist[v] = d_next
                    sigma[v] = sigma_u
                    preds[v] = [(u, e)]
                    order.append(v)
                elif d_v == d_next:
                    sigma[v] += sigma_u
                    preds[v].append((u, e))
        for u in order:
            dist[u] = -1
            delta[u] = 0.0
        for w in reversed(order):
            sigma_w = sigma[w]
            weight = 1.0 + delta[w]
            for u, e in preds[w]:
                contribution = sigma[u] / sigma_w * weight
                scores[e] += contribution
                delta[u] += contribution
    # Each unordered pair was counted from both endpoints.
    return {key: score / 2.0 for key, score in zip(keys, scores)}


def edge_betweenness(graph: ClassGraph) -> dict[tuple[int, int], float]:
    """Edge betweenness of the graph with parallel edges merged;
    multiplicities are not used as distances."""
    adj = {u: set(graph.neighbors(u)) for u in range(graph.n_nodes)}
    return _edge_betweenness(adj, range(graph.n_nodes))


def detect_eb(
    graph: ClassGraph,
    max_edges: int = EB_DEFAULT_EDGE_CAP,
) -> tuple[Partition, Dendrogram]:
    """Divisive detection: repeatedly cut the max-betweenness edge bundle.

    Betweenness runs on the collapsed simple graph with hop-count paths;
    removing an edge deletes the whole parallel bundle. Q is evaluated on the
    original multigraph whenever the component count grows, and the max-Q
    component partition is returned. Fully deterministic.

    The cut is the edge of maximal score; among scores that are exactly
    equal as floats it is the lexicographically smallest (min-id, max-id)
    pair. Equivalent edges can still get different scores through rounding
    (the 4-cube's 32 equivalent edges get 5 distinct ones), so the tie-break
    does not always decide between them; see ROADMAP item 4 (EB ties).

    After a cut, betweenness can change only inside the component that lost
    the edge (Newman & Girvan 2004), so Brandes (2001) is rerun only there:
    on the one component, or on both halves if the cut split it. A cut costs
    O(k*e) for a component of k nodes and e edges instead of O(n*m) for the
    whole graph; the search for the maximal score still scans every edge.
    """
    if graph.n_nodes == 0:
        raise GraphError("empty graph")
    n_edges = collapse_to_weighted(graph).n_edges
    if n_edges > max_edges:
        raise SizeCapError(
            f"collapsed graph has {n_edges} edges "
            f"(cap {max_edges}); use the MO or LP algorithm instead"
        )
    n = graph.n_nodes
    adj = {u: set(graph.neighbors(u)) for u in range(n)}
    denom = 4 * graph.m ** 2 if graph.m else 1

    comp = component_labels(adj, range(n))
    partition = Partition(comp[u] for u in range(n))
    n_components = partition.n_blocks
    best_num = modularity_numerator(graph, partition)
    best_partition = partition
    levels = [DendrogramLevel(n_components, best_num / denom)]
    best_index = 0

    scores = _edge_betweenness(adj, range(n))
    while scores:
        cut = max(scores.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))[0]
        del scores[cut]
        u, v = cut
        adj[u].discard(v)
        adj[v].discard(u)
        # Side 0 is u's component; v is on side 1 if the cut split them.
        reach = component_labels(adj, cut)
        for side in range(reach[v] + 1):
            scores.update(_edge_betweenness(
                adj, sorted(x for x, c in reach.items() if c == side)))
        if reach[v]:
            comp = component_labels(adj, range(n))
            partition = Partition(comp[u] for u in range(n))
            n_components += 1
            num = modularity_numerator(graph, partition)
            levels.append(DendrogramLevel(n_components, num / denom))
            if num > best_num:
                best_num = num
                best_partition = partition
                best_index = len(levels) - 1
    return best_partition.relabel_dense(), Dendrogram(levels, best_index)


def detect_mo(graph: ClassGraph, seed: int) -> tuple[Partition, Dendrogram]:
    """Greedy agglomeration: merge the connected community pair of maximal
    modularity gain until no connected pair remains; return the sweep's best.

    Merges are incremental in the manner of Clauset, Newman & Moore (2004):
    each community keeps a map of its neighbour communities and edge counts,
    and every connected pair (c, d), c < d, sits in a bucket keyed by its
    exact integer gain 2m*e_cd - d_c*d_d, found through a max-heap of gains.
    A merge re-keys only the pairs that touch the two merged communities, so
    it costs time in their neighbour counts rather than in the whole graph.

    Tie rule: the tie set is the sorted list of every maximal-gain pair; with
    more than one, rng.randrange(len(ties)) picks one, uniformly under the
    seed. The larger id d always merges into the smaller id c. Buckets are
    unordered sets; a bucket is sorted only when a tie is drawn from it.
    """
    if graph.n_nodes == 0:
        raise GraphError("empty graph")
    rng = random.Random(seed)
    m = graph.m
    denom = 4 * m ** 2 if m else 1
    n = graph.n_nodes
    two_m = 2 * m

    deg = list(graph.degree)
    nbr = [dict(graph.neighbors(u)) for u in range(n)]
    # Gain of merging (c, d) is 2*(2m*e_cd - d_c*d_d) on the numerator scale;
    # buckets hold the halved gain.
    buckets: dict[int, set[tuple[int, int]]] = {}
    for c in range(n):
        for d, e in nbr[c].items():
            if c < d:
                buckets.setdefault(two_m * e - deg[c] * deg[d], set()).add((c, d))
    # Negated gains; an entry whose bucket has emptied is dropped when it
    # reaches the top.
    heap = [-gain for gain in buckets]
    heapq.heapify(heap)

    def drop_pair(c: int, x: int, gain: int) -> None:
        bucket = buckets[gain]
        bucket.discard((c, x) if c < x else (x, c))
        if not bucket:
            del buckets[gain]

    def add_pair(c: int, x: int, gain: int) -> None:
        bucket = buckets.get(gain)
        if bucket is None:
            bucket = buckets[gain] = set()
            heapq.heappush(heap, -gain)
        bucket.add((c, x) if c < x else (x, c))

    q_num = -sum(k * k for k in graph.degree)
    best_num = q_num
    levels = [DendrogramLevel(n, q_num / denom)]
    best_index = 0
    merges: list[tuple[int, int]] = []

    while heap:
        best_score = -heap[0]
        ties = buckets.get(best_score)
        if ties is None:
            heapq.heappop(heap)
            continue
        c, d = sorted(ties)[rng.randrange(len(ties))] if len(ties) > 1 \
            else next(iter(ties))
        # Merge d into c: drop every pair touching c or d at its old gain,
        # fold d's edge counts into c, then add c's pairs at their new gains.
        nbr_c, nbr_d = nbr[c], nbr[d]
        deg_c, deg_d = deg[c], deg[d]
        for x, e in nbr_c.items():
            drop_pair(c, x, two_m * e - deg_c * deg[x])
        del nbr_c[d]
        for x, e in nbr_d.items():
            if x != c:
                drop_pair(d, x, two_m * e - deg_d * deg[x])
                nbr_x = nbr[x]
                del nbr_x[d]
                nbr_x[c] = nbr_x.get(c, 0) + e
                nbr_c[x] = nbr_c.get(x, 0) + e
        deg_c = deg[c] = deg_c + deg_d
        for x, e in nbr_c.items():
            add_pair(c, x, two_m * e - deg_c * deg[x])
        merges.append((c, d))
        q_num += 2 * best_score
        levels.append(DendrogramLevel(n - len(merges), q_num / denom))
        if q_num > best_num:
            best_num = q_num
            best_index = len(levels) - 1
    # Replay the merges up to the best level; c < d, so resolving nodes in
    # ascending order finds every parent already pointing at its root.
    comm = list(range(n))
    for c, d in merges[:best_index]:
        comm[d] = c
    for node in range(n):
        comm[node] = comm[comm[node]]
    partition = Partition(comm).relabel_dense()
    return partition, Dendrogram(levels, best_index)


def _lp_sweeps(graph: ClassGraph, labels: list[Hashable],
               rng: random.Random) -> None:
    """Asynchronous label-propagation sweeps until the fixpoint, in place.

    A node adopts the label of maximal multiplicity-weighted frequency among
    its neighbors, ties uniform under the rng. Nodes without neighbors keep
    their label. At most LP_SWEEP_CAP sweeps run; if the labels are still
    not at a fixpoint after the last one, a RuntimeWarning says so and the
    current labels stand.
    """
    nodes = list(range(graph.n_nodes))

    def maximal_labels(node: int) -> list[Hashable]:
        freq: dict[Hashable, int] = {}
        for neighbor, mult in graph.neighbors(node).items():
            label = labels[neighbor]
            freq[label] = freq.get(label, 0) + mult
        if not freq:
            return [labels[node]]
        top = max(freq.values())
        return [lbl for lbl, w in freq.items() if w == top]

    def at_fixpoint() -> bool:
        return all(labels[u] in maximal_labels(u) for u in nodes)

    for _ in range(LP_SWEEP_CAP):
        if at_fixpoint():
            return
        rng.shuffle(nodes)
        for u in nodes:
            candidates = sorted(maximal_labels(u), key=str)
            labels[u] = candidates[rng.randrange(len(candidates))] \
                if len(candidates) > 1 else candidates[0]
    if not at_fixpoint():
        warnings.warn(
            f"label propagation hit the sweep cap ({LP_SWEEP_CAP}) before "
            "reaching a fixpoint; returning the current labeling",
            RuntimeWarning,
        )


def detect_lp(graph: ClassGraph, seed: int) -> Partition:
    """Label propagation from unique initial labels, densely relabeled.

    Sweeps stop at the fixpoint or after LP_SWEEP_CAP sweeps; only a run
    that ends at the cap without reaching the fixpoint warns.
    """
    if graph.n_nodes == 0:
        raise GraphError("empty graph")
    rng = random.Random(seed)
    labels: list[Hashable] = list(range(graph.n_nodes))
    _lp_sweeps(graph, labels, rng)
    return Partition(labels).relabel_dense()


def refine_packages(graph: ClassGraph, initial: Partition, seed: int) -> Partition:
    """Refine and merge an existing partition by label propagation.

    Sweeps start from the given labels, so the output label set is a subset
    of the input's and original identifiers survive for comprehension.
    """
    if not initial.covers(graph):
        raise GraphError("initial partition does not cover the graph")
    rng = random.Random(seed)
    labels = list(initial.labels)
    _lp_sweeps(graph, labels, rng)
    result = Partition(labels)
    assert result.label_set() <= initial.label_set()
    return result
