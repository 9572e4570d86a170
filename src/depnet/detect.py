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
from typing import Hashable, NamedTuple, Sequence

from .errors import GraphError, SizeCapError
from .graph import (ClassGraph, Partition, check_cover, collapse_to_weighted,
                    component_labels, modularity_numerator, relabel_dense)

EB_DEFAULT_EDGE_CAP = 5000
LP_SWEEP_CAP = 1000  # label-propagation sweeps before giving up on a fixpoint


class DendrogramLevel(NamedTuple):
    n_communities: int
    q: float


class Dendrogram(NamedTuple):
    """Merge/split sweep with the modularity recorded at every level."""

    levels: list[DendrogramLevel]
    best_index: int

    @property
    def best(self) -> DendrogramLevel:
        return self.levels[self.best_index]


def _edge_indexed(graph: ClassGraph) -> tuple[list[tuple[int, int]],
                                              list[dict[int, int]]]:
    """The collapsed edges numbered in lexicographic (min-id, max-id) order,
    and per node a map from each neighbour to their edge's number, in the
    iteration order of the set of its neighbours (EB's float sum order)."""
    n = graph.n_nodes
    ends = [(u, v) for u in range(n) for v in sorted(graph.neighbors(u))
            if u < v]
    index = {edge: e for e, edge in enumerate(ends)}
    return ends, [{v: index[min(u, v), max(u, v)]
                   for v in set(graph.neighbors(u))} for u in range(n)]


def _edge_betweenness(nbrs: list[dict[int, int]], nodes: Sequence[int],
                      scores: list[float]) -> None:
    """Brandes accumulation over hop-count shortest paths, in place.

    The score of an edge is the number of unordered node pairs whose shortest
    paths traverse it, split equally among equal-length alternatives; each
    pair is counted from both ends, so `scores[e]` receives twice that.
    `nbrs[u]` maps each neighbour of u to their edge's index in `scores`.
    Only the scores of the edges among `nodes` are rewritten: the nodes must
    be ascending and closed under adjacency (whole components). Sources run
    in ascending id order and each neighbour is visited in `nbrs`'s order, so
    every float sum is formed in the same order however the graph is split
    into calls.
    """
    n = len(nbrs)
    # slots[u]: nbrs[u]'s (neighbour, edge index) pairs; the BFS iterates a
    # list faster than a dict's items.
    slots: list[list[tuple[int, int]]] = [[]] * n
    for u in nodes:
        slots[u] = pairs = list(nbrs[u].items())
        for _, e in pairs:
            scores[e] = 0.0
    dist = [-1] * n
    sigma = [0.0] * n
    delta = [0.0] * n
    # preds[v]: (predecessor, edge index) slots, in BFS order.
    preds: list[list[tuple[int, int]] | None] = [None] * n
    for source in nodes:
        dist[source] = 0
        sigma[source] = 1.0
        preds[source] = []
        order = [source]  # the BFS queue; it grows while being read
        for u in order:
            d_next = dist[u] + 1
            sigma_u = sigma[u]
            for v, e in slots[u]:
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


def detect_eb(graph: ClassGraph) -> tuple[Partition, Dendrogram]:
    """Divisive detection: repeatedly cut the max-betweenness edge bundle.

    Betweenness runs on the collapsed simple graph with hop-count paths;
    removing an edge deletes the whole parallel bundle. Q is evaluated on the
    original multigraph whenever the component count grows, and the max-Q
    component partition is returned as a tuple of labels in node order,
    densely relabelled (see `relabel_dense`). Fully deterministic. More than
    EB_DEFAULT_EDGE_CAP collapsed edges raise SizeCapError.

    The edges are numbered once in lexicographic (min-id, max-id) order, and
    the cut is the edge of maximal score; among scores that are exactly
    equal as floats it is the one of smallest index. Equivalent edges can
    still get different scores through rounding (the 4-cube's 32 equivalent
    edges get 5 distinct ones), so the tie-break does not always decide
    between them; see ROADMAP item 4 (EB ties).

    After a cut, betweenness can change only inside the component that lost
    the edge (Newman & Girvan 2004), so Brandes (2001) is rerun only there:
    on the one component, or on both halves if the cut split it. A cut costs
    O(k*e) for a component of k nodes and e edges instead of O(n*m) for the
    whole graph.
    """
    if graph.n_nodes == 0:
        raise GraphError("empty graph")
    n_edges = collapse_to_weighted(graph).n_edges
    if n_edges > EB_DEFAULT_EDGE_CAP:
        raise SizeCapError(
            f"collapsed graph has {n_edges} edges "
            f"(cap {EB_DEFAULT_EDGE_CAP}); use the MO or LP algorithm instead"
        )
    n = graph.n_nodes
    ends, nbrs = _edge_indexed(graph)
    denom = 4 * graph.m ** 2 if graph.m else 1

    comp = component_labels(nbrs, range(n))
    labels = [comp[u] for u in range(n)]
    best_partition = tuple(labels)
    n_components = len(set(labels))
    best_num = modularity_numerator(graph, best_partition)
    levels = [DendrogramLevel(n_components, best_num / denom)]
    best_index = 0

    scores = [0.0] * len(ends)
    _edge_betweenness(nbrs, range(n), scores)
    for _ in ends:
        e = scores.index(max(scores))
        scores[e] = -1.0
        u, v = cut = ends[e]
        del nbrs[u][v], nbrs[v][u]
        # Side 0 is u's component; v is on side 1 if the cut split them.
        reach = component_labels(nbrs, cut)
        for side in range(reach[v] + 1):
            _edge_betweenness(
                nbrs, sorted(x for x, c in reach.items() if c == side), scores)
        if reach[v]:
            for x, c in reach.items():
                if c:
                    labels[x] = n_components
            n_components += 1
            partition = tuple(labels)
            num = modularity_numerator(graph, partition)
            levels.append(DendrogramLevel(n_components, num / denom))
            if num > best_num:
                best_num = num
                best_partition = partition
                best_index = len(levels) - 1
    return relabel_dense(best_partition), Dendrogram(levels, best_index)


def detect_mo(graph: ClassGraph, seed: int) -> tuple[Partition, Dendrogram]:
    """Greedy agglomeration: merge the connected community pair of maximal
    modularity gain while that gain is positive; return the partition of
    maximal Q, a tuple of labels in node order densely relabelled (see
    `relabel_dense`), and the dendrogram, which ends at that best level.

    Stopping there loses no better level: merging c and d makes the gain of
    (c+d, x) the sum of those of (c, x) and (d, x), and an unconnected pair
    gains -d_c*d_x <= 0, so once no gain is positive none becomes so again.

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
    # buckets hold the halved gain, and only while it is positive.
    buckets: dict[int, set[tuple[int, int]]] = {}
    for c in range(n):
        for d, e in nbr[c].items():
            gain = two_m * e - deg[c] * deg[d]
            if c < d and gain > 0:
                buckets.setdefault(gain, set()).add((c, d))
    # Negated gains; an entry whose bucket has emptied is dropped when it
    # reaches the top.
    heap = [-gain for gain in buckets]
    heapq.heapify(heap)

    def drop_pair(c: int, x: int, gain: int) -> None:
        if gain > 0:
            bucket = buckets[gain]
            bucket.discard((c, x) if c < x else (x, c))
            if not bucket:
                del buckets[gain]

    q_num = -sum(k * k for k in deg)
    levels = [DendrogramLevel(n, q_num / denom)]
    comm = list(range(n))

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
            gain = two_m * e - deg_c * deg[x]
            if gain > 0:
                bucket = buckets.get(gain)
                if bucket is None:
                    bucket = buckets[gain] = set()
                    heapq.heappush(heap, -gain)
                bucket.add((c, x) if c < x else (x, c))
        comm[d] = c
        q_num += 2 * best_score
        levels.append(DendrogramLevel(n - len(levels), q_num / denom))
    # c < d at every merge, so resolving nodes in ascending order finds every
    # parent already pointing at its root.
    for node in range(n):
        comm[node] = comm[comm[node]]
    return relabel_dense(comm), Dendrogram(levels, len(levels) - 1)


def _lp_sweeps(graph: ClassGraph, labels: list[Hashable],
               rng: random.Random) -> None:
    """Asynchronous label-propagation sweeps until the fixpoint, in place.

    A node adopts the label of maximal multiplicity-weighted frequency among
    its neighbors, ties uniform under the rng. Nodes without neighbors keep
    their label. At most LP_SWEEP_CAP sweeps run; if the labels are still
    not at a fixpoint after the last one, a RuntimeWarning says so and the
    current labels stand.

    Each node's maximal labels, sorted by `str`, are cached until a
    neighbour's label is replaced by another object. Equal labels of
    different types (1 and True) are one dict key, and the first one tallied
    in adjacency order stands for both, so a change of identity, not of
    value, is what invalidates a cached list.
    """
    nodes = list(range(graph.n_nodes))
    neighbors = [graph.neighbors(u) for u in nodes]
    cached: list[list[Hashable] | None] = [None] * len(nodes)

    def maximal_labels(node: int) -> list[Hashable]:
        candidates = cached[node]
        if candidates is None:
            freq: dict[Hashable, int] = {}
            for neighbor, mult in neighbors[node].items():
                label = labels[neighbor]
                freq[label] = freq.get(label, 0) + mult
            if freq:
                top = max(freq.values())
                candidates = [lbl for lbl, w in freq.items() if w == top]
                if len(candidates) > 1:
                    candidates.sort(key=str)
            else:
                candidates = [labels[node]]
            cached[node] = candidates
        return candidates

    def at_fixpoint() -> bool:
        return all(labels[u] in maximal_labels(u) for u in nodes)

    for _ in range(LP_SWEEP_CAP):
        if at_fixpoint():
            return
        rng.shuffle(nodes)
        for u in nodes:
            candidates = maximal_labels(u)
            label = candidates[rng.randrange(len(candidates))] \
                if len(candidates) > 1 else candidates[0]
            if label is not labels[u]:
                labels[u] = label
                for v in neighbors[u]:
                    cached[v] = None
    if not at_fixpoint():
        warnings.warn(
            f"label propagation hit the sweep cap ({LP_SWEEP_CAP}) before "
            "reaching a fixpoint; returning the current labeling",
            RuntimeWarning,
        )


def detect_lp(graph: ClassGraph, seed: int) -> Partition:
    """Label propagation from unique initial labels; returns the labels in
    node order as a tuple, densely relabelled (see `relabel_dense`).

    Sweeps stop at the fixpoint or after LP_SWEEP_CAP sweeps; only a run
    that ends at the cap without reaching the fixpoint warns.
    """
    if graph.n_nodes == 0:
        raise GraphError("empty graph")
    rng = random.Random(seed)
    labels: list[Hashable] = list(range(graph.n_nodes))
    _lp_sweeps(graph, labels, rng)
    return relabel_dense(labels)


def refine_packages(graph: ClassGraph, initial: Partition, seed: int) -> Partition:
    """Refine and merge an existing partition by label propagation.

    Sweeps start from the given labels (a tuple in node order), so the
    returned tuple's label set is a subset of the input's and original
    identifiers survive for comprehension.
    """
    check_cover(graph, initial)
    rng = random.Random(seed)
    labels = list(initial)
    _lp_sweeps(graph, labels, rng)
    result = tuple(labels)
    assert set(result) <= set(initial)
    return result
