"""Independent oracles used to freeze expected values.

These deliberately use the slowest, most literal formulations (ordered-pair
sums, exhaustive enumeration, direct entropy sums) and stay independent of
the library's optimized code paths. `detect_mo_reference` is the original
full-rescan greedy agglomeration, kept verbatim as the slow reference that the
incremental `detect_mo` must reproduce exactly. Likewise
`edge_betweenness_reference` and `detect_eb_reference` are the original
whole-graph Brandes pass and divisive loop, which recompute every score and
every component after each cut; the component-local `detect_eb` must match
them bit for bit. `split_disconnected_reference` is the original P+ split with
its own component search; its label order must be kept, since `nmi` sums
floats in that order. `tokenize_reference` is the original character-stepping
tokenizer, which tracks line and column for every token, taught only to take
comments and literals in annotation arguments whole, as Java does; the
master-regex `tokenize`, resumed after each `{` or `=` it stops at, must give
the same stream, with `position` for line and column.
`largest_components_filter_reference` is the original component filter with
its own union-find; the filter built on `component_labels` must give the
same community graph. `lp_sweeps_reference` is the original label-propagation
sweep loop, which tallies neighbour labels in a `Counter`; `_lp_sweeps` must
give the same labels and leave the rng in the same state.
"""

import math
import random
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable

from depnet import (ClassGraph, GraphError, ParseError, SizeCapError,
                    build_graph, collapse_to_weighted)
from depnet.abstract import Community, CommunityGraph
from depnet.detect import (EB_DEFAULT_EDGE_CAP, LP_SWEEP_CAP, Dendrogram,
                           DendrogramLevel)
from depnet.graph import Label, Partition, relabel_dense
from depnet.headers import MODIFIERS
from depnet.ingest import KINDS
from depnet.metrics import modularity_numerator


def blocks_of(partition: Partition) -> dict[Label, frozenset[int]]:
    """Label -> member nodes, labels in order of their smallest node."""
    members: dict[Label, set[int]] = {}
    for node, label in enumerate(partition):
        members.setdefault(label, set()).add(node)
    return {label: frozenset(nodes) for label, nodes in members.items()}


def modularity_ordered_pairs(graph: ClassGraph, partition: Partition) -> float:
    """Q as the literal double sum over ordered node pairs."""
    m = graph.m
    n = graph.n_nodes
    adjacency = [[0] * n for _ in range(n)]
    for u in range(n):
        for v, mult in graph.neighbors(u).items():
            adjacency[u][v] = mult
    total = 0.0
    for i in range(n):
        for j in range(n):
            if partition[i] != partition[j]:
                continue
            expected = graph.degree[i] * graph.degree[j] / (2 * m)
            total += adjacency[i][j] - expected
    return total / (2 * m)


def set_partitions(items):
    """All set partitions of a sequence (restricted growth strings)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def best_q_exhaustive(graph: ClassGraph) -> float:
    """Max modularity over every partition of the node set (n <= 8 expected)."""
    best = -math.inf
    for blocks in set_partitions(range(graph.n_nodes)):
        labels = {node: i for i, block in enumerate(blocks) for node in block}
        partition = tuple(labels[node] for node in range(graph.n_nodes))
        best = max(best, modularity_ordered_pairs(graph, partition))
    return best


def nmi_direct(a: Partition, b: Partition) -> float:
    """NMI from explicit marginal/joint probability tables."""
    nodes = range(len(a))
    n = len(nodes)
    pa = Counter(a[u] for u in nodes)
    pb = Counter(b[u] for u in nodes)
    joint = Counter((a[u], b[u]) for u in nodes)
    h_a = -sum(c / n * math.log(c / n) for c in pa.values())
    h_b = -sum(c / n * math.log(c / n) for c in pb.values())
    if h_a + h_b == 0:
        return 1.0
    info = sum(
        c / n * math.log((c / n) / ((pa[la] / n) * (pb[lb] / n)))
        for (la, lb), c in joint.items()
    )
    return 2 * info / (h_a + h_b)


def random_multigraph(rng: random.Random, max_nodes: int = 8,
                      max_edges: int = 16) -> ClassGraph:
    """Random multigraph with at least one edge and no self-loops."""
    n = rng.randint(2, max_nodes)
    fqns = [f"n{i}" for i in range(n)]
    pairs = list(combinations(range(n), 2))
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        u, v = pairs[rng.randrange(len(pairs))]
        kind = rng.choice(KINDS)
        edges.append((fqns[u], fqns[v], kind))
    return build_graph(fqns, edges)


def random_partition(rng: random.Random, n: int) -> Partition:
    k = rng.randint(1, n)
    return tuple(rng.randrange(k) for _ in range(n))


def random_sparse_multigraph(rng: random.Random, n: int,
                             edges_per_node: float) -> ClassGraph:
    """Random multigraph on n nodes with about edges_per_node * n edges drawn
    uniformly over node pairs; parallel edges kept, self-loops redrawn."""
    fqns = [f"n{i}" for i in range(n)]
    edges = []
    while len(edges) < round(edges_per_node * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((fqns[u], fqns[v], "field"))
    return build_graph(fqns, edges)


def detect_mo_reference(graph: ClassGraph, seed: int) -> tuple[Partition, Dendrogram]:
    """Greedy agglomeration: merge the connected community pair of maximal
    modularity gain until no connected pair remains; return the sweep's best.

    Ties among maximal-gain pairs break uniformly at random under the seed.
    """
    if graph.n_nodes == 0:
        raise GraphError("empty graph")
    rng = random.Random(seed)
    m = graph.m
    denom = 4 * m ** 2 if m else 1
    n = graph.n_nodes

    comm = list(range(n))
    deg = {c: graph.degree[c] for c in range(n)}
    members: dict[int, list[int]] = {c: [c] for c in range(n)}
    between: dict[tuple[int, int], int] = {}
    for u in range(n):
        for v, mult in graph.neighbors(u).items():
            if u < v:
                between[(u, v)] = mult

    q_num = -sum(k * k for k in graph.degree)
    best_num = q_num
    best_labels = list(comm)
    levels = [DendrogramLevel(n, q_num / denom)]
    best_index = 0

    while between:
        # Gain of merging (c, d) is 2*(2m*e_cd - d_c*d_d) on the numerator scale.
        best_score = max(2 * m * e - deg[c] * deg[d]
                         for (c, d), e in between.items())
        ties = sorted(
            key for key, e in between.items()
            if 2 * m * e - deg[key[0]] * deg[key[1]] == best_score
        )
        c, d = ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]
        # Merge d into c.
        for node in members[d]:
            comm[node] = c
        members[c].extend(members.pop(d))
        deg[c] += deg.pop(d)
        merged: dict[tuple[int, int], int] = {}
        for (a, b), e in between.items():
            if (a, b) == (c, d):
                continue
            if a == d:
                a = c
            if b == d:
                b = c
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            merged[key] = merged.get(key, 0) + e
        between = merged
        q_num += 2 * best_score
        levels.append(DendrogramLevel(len(members), q_num / denom))
        if q_num > best_num:
            best_num = q_num
            best_labels = list(comm)
            best_index = len(levels) - 1
    return relabel_dense(best_labels), Dendrogram(levels, best_index)


def _components_reference(adj: dict[int, set[int]]) -> dict[int, int]:
    """Component index per node; indices assigned in ascending node order."""
    labels: dict[int, int] = {}
    comp = 0
    for start in sorted(adj):
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


def edge_betweenness_reference(adj: dict[int, set[int]]) -> dict[tuple[int, int], float]:
    """Brandes accumulation over hop-count shortest paths.

    The score of an edge is the number of unordered node pairs whose shortest
    paths traverse it, split equally among equal-length alternatives.
    """
    scores: dict[tuple[int, int], float] = {
        (u, v) if u < v else (v, u): 0.0
        for u in adj for v in adj[u]
    }
    for source in adj:
        sigma = {source: 1.0}
        dist = {source: 0}
        order: list[int] = []
        preds: dict[int, list[int]] = {source: []}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = 0.0
                    preds[v] = []
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = {u: 0.0 for u in order}
        for w in reversed(order):
            for u in preds[w]:
                contribution = sigma[u] / sigma[w] * (1.0 + delta[w])
                key = (u, w) if u < w else (w, u)
                scores[key] += contribution
                delta[u] += contribution
    # Each unordered pair was counted from both endpoints.
    return {edge: score / 2.0 for edge, score in scores.items()}


def detect_eb_reference(
    graph: ClassGraph,
    max_edges: int = EB_DEFAULT_EDGE_CAP,
) -> tuple[Partition, Dendrogram]:
    """Divisive detection: repeatedly cut the max-betweenness edge bundle.

    Betweenness runs on the collapsed simple graph with hop-count paths;
    removing an edge deletes the whole parallel bundle. Q is evaluated on the
    original multigraph whenever the component count grows, and the max-Q
    component partition is returned. Fully deterministic: betweenness ties
    break on the lexicographically smallest (min-id, max-id) pair.
    """
    if graph.n_nodes == 0:
        raise GraphError("empty graph")
    collapsed = collapse_to_weighted(graph)
    if collapsed.n_edges > max_edges:
        raise SizeCapError(
            f"collapsed graph has {collapsed.n_edges} edges "
            f"(cap {max_edges}); use the MO or LP algorithm instead"
        )
    adj = {u: set(collapsed.neighbors(u)) for u in range(collapsed.n_nodes)}
    denom = 4 * graph.m ** 2 if graph.m else 1

    labels = _components_reference(adj)
    partition = tuple(labels[node] for node in range(len(labels)))
    best_num = modularity_numerator(graph, partition)
    best_partition = partition
    n_components = len(set(partition))
    levels = [DendrogramLevel(n_components, best_num / denom)]
    best_index = 0

    while any(adj[u] for u in adj):
        scores = edge_betweenness_reference(adj)
        cut = max(scores.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))[0]
        u, v = cut
        adj[u].discard(v)
        adj[v].discard(u)
        labels = _components_reference(adj)
        partition = tuple(labels[node] for node in range(len(labels)))
        if len(set(partition)) > n_components:
            n_components = len(set(partition))
            num = modularity_numerator(graph, partition)
            levels.append(DendrogramLevel(n_components, num / denom))
            if num > best_num:
                best_num = num
                best_partition = partition
                best_index = len(levels) - 1
    return relabel_dense(best_partition), Dendrogram(levels, best_index)


def split_disconnected_reference(graph: ClassGraph, partition: Partition) -> Partition:
    """Replace each block by the connected components of its induced subgraph.

    Components of a split block inherit the parent label with a numeric
    suffix; connected blocks keep their label. Idempotent.
    """
    labels: dict[int, Label] = {}
    for label, block in sorted(blocks_of(partition).items(), key=lambda kv: min(kv[1])):
        components = _components_within_reference(graph, block)
        if len(components) == 1:
            for node in block:
                labels[node] = label
        else:
            for idx, component in enumerate(components, start=1):
                for node in component:
                    labels[node] = f"{label}#{idx}"
    return tuple(labels[node] for node in range(len(labels)))


def _components_within_reference(graph: ClassGraph, block: frozenset[int]) -> list[set[int]]:
    """Connected components of the subgraph induced by a block, by min node id."""
    seen: set[int] = set()
    components = []
    for start in sorted(block):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v in block and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        components.append(comp)
    return components


_PUNCT_REFERENCE = set("{}()<>[];,.=?&")


@dataclass(frozen=True)
class ReferenceToken:
    kind: str  # "ident", "punct", "eof"
    value: str
    line: int
    col: int


def _is_ident_start_reference(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_ident_part_reference(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def tokenize_reference(source: str, filename: str | None = None) -> list[ReferenceToken]:
    """Produce the token stream, skipping comments, modifiers and annotations."""
    tokens: list[ReferenceToken] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def err(msg: str, ln: int, cl: int) -> ParseError:
        return ParseError(msg, ln, cl, filename)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def comment() -> bool:
        """Step over the comment at i, if one starts there."""
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            return True
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise err("unterminated block comment", start_line, start_col)
            advance(2)
            return True
        return False

    def literal() -> None:
        """Step over the string or char literal that starts at i."""
        quote, start_line, start_col = source[i], line, col
        advance(1)
        while i < n and source[i] != quote:
            advance(2 if source[i] == "\\" else 1)
        if i >= n:
            raise err("unterminated literal", start_line, start_col)
        advance(1)

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if comment():
            continue
        if ch == "@":
            # Annotation: skip @QualifiedName and an optional balanced (...) tail.
            advance(1)
            if i >= n or not _is_ident_start_reference(source[i]):
                raise err("expected annotation name after '@'", line, col)
            while i < n and (_is_ident_part_reference(source[i]) or source[i] == "."):
                advance(1)
            if i < n and source[i] == "(":
                # Comments and literals in the arguments are taken whole.
                depth = 0
                while i < n:
                    if comment():
                        continue
                    if source[i] in "\"'":
                        literal()
                        continue
                    if source[i] == "(":
                        depth += 1
                    elif source[i] == ")":
                        depth -= 1
                        if depth == 0:
                            advance(1)
                            break
                    advance(1)
            continue
        if _is_ident_start_reference(ch):
            start, start_line, start_col = i, line, col
            while i < n and _is_ident_part_reference(source[i]):
                advance(1)
            word = source[start:i]
            if word in MODIFIERS:
                continue
            tokens.append(ReferenceToken("ident", word, start_line, start_col))
            continue
        if ch.isdigit():
            # Numeric literal; only ever skipped, so lex permissively.
            start, start_line, start_col = i, line, col
            while i < n and (_is_ident_part_reference(source[i]) or source[i] == "."):
                advance(1)
            tokens.append(ReferenceToken("literal", source[start:i], start_line, start_col))
            continue
        if ch in "\"'":
            start, start_line, start_col = i, line, col
            literal()
            tokens.append(ReferenceToken("literal", source[start:i], start_line, start_col))
            continue
        if source.startswith("...", i):
            tokens.append(ReferenceToken("punct", "...", line, col))
            advance(3)
            continue
        if ch in _PUNCT_REFERENCE:
            tokens.append(ReferenceToken("punct", ch, line, col))
            advance(1)
            continue
        raise err(f"unexpected character {ch!r}", line, col)
    tokens.append(ReferenceToken("eof", "", line, col))
    return tokens


def largest_components_filter_reference(cgraph: CommunityGraph, k: int) -> CommunityGraph:
    """Keep the k largest connected components by total class count."""
    if k < 1:
        raise GraphError("k must be >= 1")
    parent = {c.label: c.label for c in cgraph.communities}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in cgraph.edges:
        ra, rb = find(edge.a), find(edge.b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, list[Community]] = {}
    for community in cgraph.communities:
        groups.setdefault(find(community.label), []).append(community)
    ranked = sorted(
        groups.values(),
        key=lambda cs: (-sum(c.size for c in cs), min(c.label for c in cs)),
    )
    keep = {c.label for group in ranked[:k] for c in group}
    communities = tuple(c for c in cgraph.communities if c.label in keep)
    edges = tuple(e for e in cgraph.edges if e.a in keep and e.b in keep)
    return CommunityGraph(communities, edges)


def lp_sweeps_reference(graph: ClassGraph, labels: list[Hashable],
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
        freq: Counter = Counter()
        for neighbor, mult in graph.neighbors(node).items():
            freq[labels[neighbor]] += mult
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
