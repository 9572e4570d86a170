import math
import random
import time
import warnings
from collections import Counter

import pytest

from depnet import (GraphError, SizeCapError, detect_eb, detect_lp,
                    detect_mo, modularity, refine_packages)
from depnet import detect
from depnet.detect import _edge_betweenness, _edge_indexed, _lp_sweeps
from depnet.graph import component_labels, relabel_dense
from depnet.ingest import load_edge_list
from depnet.metrics import package_analysis

import oracles
from conftest import (components, generate_tree, graph_from_pairs,
                      ring_lattice_pairs)
from oracles import (blocks_of, detect_eb_reference, detect_mo_reference,
                     edge_betweenness_reference, lp_sweeps_reference,
                     random_multigraph, random_partition,
                     random_sparse_multigraph)

TWO_TRIANGLES_Q = 5 / 14  # oracle-verified optimum of the bridged triangles


def clique_ring(n_cliques=4, clique_size=8):
    """Cliques joined in a ring by one bridge edge between consecutive cliques."""
    pairs = []
    for c in range(n_cliques):
        base = c * clique_size
        pairs += [(base + i, base + j)
                  for i in range(clique_size) for j in range(i + 1, clique_size)]
        nxt = ((c + 1) % n_cliques) * clique_size
        pairs.append((base + clique_size - 1, nxt))
    return graph_from_pairs(pairs)


def halved(ends, scores):
    """The kernel's doubled scores as a map from edge to betweenness."""
    return {edge: score / 2.0 for edge, score in zip(ends, scores)}


def edge_betweenness(graph):
    """Edge betweenness of the whole graph with parallel edges merged."""
    ends, nbrs = _edge_indexed(graph)
    scores = [0.0] * len(ends)
    _edge_betweenness(nbrs, range(graph.n_nodes), scores)
    return halved(ends, scores)


class TestEdgeBetweenness:
    def test_path(self):
        scores = edge_betweenness(graph_from_pairs([(0, 1), (1, 2)]))
        assert scores[(0, 1)] == pytest.approx(2.0)
        assert scores[(1, 2)] == pytest.approx(2.0)

    def test_bridge_between_triangles(self, two_triangles):
        scores = edge_betweenness(two_triangles)
        assert scores[(2, 3)] == pytest.approx(9.0)

    def test_single_edge(self):
        scores = edge_betweenness(graph_from_pairs([(0, 1)]))
        assert scores[(0, 1)] == pytest.approx(1.0)

    def test_equal_split_on_square(self):
        scores = edge_betweenness(
            graph_from_pairs([(0, 1), (1, 2), (2, 3), (0, 3)]))
        # Each opposite pair splits its two shortest paths evenly.
        assert all(s == pytest.approx(2.0) for s in scores.values())

    def test_rewrites_only_the_edges_among_its_nodes(self):
        """Scoring one component overwrites its own edges' stale scores and
        leaves every other score as it was; scoring the components one by
        one gives exactly the whole graph's floats."""
        g = random_sparse_multigraph(random.Random(19), 60, 0.8)
        ends, nbrs = _edge_indexed(g)
        whole = [0.0] * len(ends)
        _edge_betweenness(nbrs, range(g.n_nodes), whole)
        labels = component_labels(nbrs, range(g.n_nodes))
        blocks = [sorted(u for u, c in labels.items() if c == comp)
                  for comp in set(labels.values())]
        assert sum(len(block) > 2 for block in blocks) >= 2
        scores = [-1.0 - e for e in range(len(ends))]
        for block in blocks:
            before = list(scores)
            _edge_betweenness(nbrs, block, scores)
            inside = {e for u in block for e in nbrs[u].values()}
            assert scores == [whole[e] if e in inside else before[e]
                              for e in range(len(ends))]
        assert scores == whole


class TestEB:
    def test_two_triangles(self, two_triangles, triangle_partition):
        part, dendro = detect_eb(two_triangles)
        assert relabel_dense(part) == relabel_dense(triangle_partition)
        assert modularity(two_triangles, part) == pytest.approx(TWO_TRIANGLES_Q)
        assert dendro.best.q == pytest.approx(TWO_TRIANGLES_Q)

    def test_single_triangle_stays_whole(self):
        g = graph_from_pairs([(0, 1), (0, 2), (1, 2)])
        part, _ = detect_eb(g)
        assert len(set(part)) == 1
        assert modularity(g, part) == pytest.approx(0.0)

    def test_deterministic(self, two_triangles):
        assert detect_eb(two_triangles)[0] == detect_eb(two_triangles)[0]

    def test_size_cap(self, monkeypatch, two_triangles):
        monkeypatch.setattr(detect, "EB_DEFAULT_EDGE_CAP", 3)
        with pytest.raises(SizeCapError, match="MO or LP"):
            detect_eb(two_triangles)

    def test_size_cap_boundary(self, monkeypatch):
        """5,000 collapsed edges pass the cap and 5,001 do not; betweenness
        is stubbed, as one EB run at the cap takes about 25 minutes."""
        class Sentinel(Exception):
            pass

        def stub(nbrs, nodes, scores):
            raise Sentinel

        monkeypatch.setattr(detect, "_edge_betweenness", stub)
        at_cap = graph_from_pairs(ring_lattice_pairs(5000))
        assert at_cap.n_nodes == 1000
        with pytest.raises(Sentinel):
            detect_eb(at_cap)
        with pytest.raises(SizeCapError) as info:
            detect_eb(graph_from_pairs(ring_lattice_pairs(5001)))
        assert str(info.value) == ("collapsed graph has 5001 edges (cap 5000);"
                                   " use the MO or LP algorithm instead")

    def test_dendrogram_records_q_per_level(self, two_triangles):
        _, dendro = detect_eb(two_triangles)
        assert len(dendro.levels) >= 2
        assert dendro.levels[0].n_communities == 1


class TestMO:
    def test_two_triangles(self, two_triangles, triangle_partition):
        part, _ = detect_mo(two_triangles, seed=0)
        assert relabel_dense(part) == relabel_dense(triangle_partition)

    def test_complete_graph_single_block(self):
        g = graph_from_pairs([(i, j) for i in range(4) for j in range(i + 1, 4)])
        part, _ = detect_mo(g, seed=0)
        assert len(set(part)) == 1
        assert modularity(g, part) == pytest.approx(0.0)

    def test_reproducible(self, two_triangles):
        assert detect_mo(two_triangles, 7)[0] == detect_mo(two_triangles, 7)[0]

    def test_never_below_singleton_q(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_multigraph(rng)
            part, _ = detect_mo(g, seed=rng.randrange(1 << 32))
            singleton = tuple(range(g.n_nodes))
            assert modularity(g, part) >= modularity(g, singleton) - 1e-12

    def test_communities_connected(self):
        from depnet import induced_subgraph

        rng = random.Random(11)
        for _ in range(20):
            g = random_multigraph(rng)
            part, _ = detect_mo(g, seed=rng.randrange(1 << 32))
            for block in blocks_of(part).values():
                sub = induced_subgraph(g, block)
                assert len(set(components(sub))) == 1

    def test_dendrogram_rises_to_its_best_level_and_ends_there(
            self, two_triangles):
        _, dendro = detect_mo(two_triangles, seed=0)
        assert [level.n_communities for level in dendro.levels] == [
            6, 5, 4, 3, 2]
        assert dendro.best == dendro.levels[-1]
        assert dendro.best.q == pytest.approx(TWO_TRIANGLES_Q)
        rng = random.Random(18)
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=30, max_edges=60)
            _, dendro = detect_mo(g, seed=rng.randrange(1 << 32))
            n = g.n_nodes
            assert [level.n_communities for level in dendro.levels] == list(
                range(n, n - len(dendro.levels), -1))
            assert all(a.q < b.q
                       for a, b in zip(dendro.levels, dendro.levels[1:]))
            assert dendro.best_index == len(dendro.levels) - 1


def assert_same_partition(part, ref_part):
    # The same label per node, not only the same blocks.
    assert part == ref_part


def assert_mo_matches_reference(graph, seed):
    part, dendro = detect_mo(graph, seed)
    ref_part, ref_dendro = detect_mo_reference(graph, seed)
    assert_same_partition(part, ref_part)
    # The reference sweeps on until no connected pair remains; MO ends at
    # its best level, and no later reference level is better.
    assert dendro.levels == ref_dendro.levels[:ref_dendro.best_index + 1]
    assert dendro.best_index == ref_dendro.best_index
    assert all(level.q <= ref_dendro.best.q
               for level in ref_dendro.levels[ref_dendro.best_index + 1:])


TIE_HEAVY_SHAPES = {
    "star": [(0, i) for i in range(1, 9)],
    "star_high_center": [(i, 8) for i in range(8)],
    "clique": [(i, j) for i in range(7) for j in range(i + 1, 7)],
    "ring": [(i, (i + 1) % 12) for i in range(12)],
    "double_ring": [(i, (i + 1) % 8) for i in range(8)] * 2,
    "bipartite_3_4": [(i, j) for i in range(3) for j in range(3, 7)],
    "disjoint_with_isolated": [(0, 1), (0, 2), (1, 2), (4, 5), (4, 6), (5, 6),
                               (8, 9), (11, 12)],
}


class TestMOMatchesReference:
    """The incremental MO reproduces the full-rescan reference exactly:
    partition, every dendrogram level up to the best and the best index."""

    def test_random_multigraphs(self):
        rng = random.Random(2004)
        for _ in range(320):
            g = random_multigraph(rng, max_nodes=rng.randint(2, 60),
                                  max_edges=rng.randint(1, 150))
            assert_mo_matches_reference(g, rng.randrange(1 << 32))

    @pytest.mark.parametrize("shape", sorted(TIE_HEAVY_SHAPES))
    def test_tie_heavy_shapes(self, shape):
        pairs = TIE_HEAVY_SHAPES[shape]
        # One extra node past the shape stays isolated.
        g = graph_from_pairs(pairs, n=max(max(p) for p in pairs) + 2)
        for seed in range(12):
            assert_mo_matches_reference(g, seed)

    def test_clique_ring(self):
        for seed in range(12):
            assert_mo_matches_reference(clique_ring(), seed)

    def test_isolated_nodes_without_edges(self):
        g = graph_from_pairs([], n=5)
        assert g.m == 0
        for seed in range(3):
            assert_mo_matches_reference(g, seed)

    def test_thousand_nodes(self):
        g = random_sparse_multigraph(random.Random(1000), 1000, 4)
        assert_mo_matches_reference(g, 42)


def test_mo_time_bound_two_thousand_nodes():
    """One MO run on 2,000 nodes and 8,000 edges; the full-rescan reference
    takes several seconds, the incremental merges a fraction of one."""
    g = random_sparse_multigraph(random.Random(7), 2000, 4)
    start = time.perf_counter()
    detect_mo(g, 42)
    assert time.perf_counter() - start < 3.0


def hypercube(dim):
    return graph_from_pairs([(u, u ^ (1 << b)) for u in range(1 << dim)
                             for b in range(dim) if u < u ^ (1 << b)])


def torus(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            pairs += [(u, r * cols + (c + 1) % cols), (u, ((r + 1) % rows) * cols + c)]
    return graph_from_pairs(pairs)


EB_TIE_HEAVY_GRAPHS = {
    "hypercube_3": lambda: hypercube(3),
    "hypercube_4": lambda: hypercube(4),
    "hypercube_5": lambda: hypercube(5),
    "bipartite_3_4": lambda: graph_from_pairs(TIE_HEAVY_SHAPES["bipartite_3_4"]),
    "ring": lambda: graph_from_pairs(TIE_HEAVY_SHAPES["ring"]),
    "torus_4_4": lambda: torus(4, 4),
    "star": lambda: graph_from_pairs(TIE_HEAVY_SHAPES["star"]),
    "clique_ring": clique_ring,
}


def assert_eb_matches_reference(graph):
    part, dendro = detect_eb(graph)
    ref_part, ref_dendro = detect_eb_reference(graph)
    assert_same_partition(part, ref_part)
    assert dendro.levels == ref_dendro.levels
    assert dendro.best_index == ref_dendro.best_index
    adj = {u: set(graph.neighbors(u)) for u in range(graph.n_nodes)}
    ref_scores = edge_betweenness_reference(adj)
    assert edge_betweenness(graph) == ref_scores
    # Scoring each component on its own gives the whole-graph floats.
    ends, nbrs = _edge_indexed(graph)
    labels = component_labels(nbrs, range(graph.n_nodes))
    local = [0.0] * len(ends)
    for comp in set(labels.values()):
        _edge_betweenness(
            nbrs, sorted(u for u, c in labels.items() if c == comp), local)
    assert halved(ends, local) == ref_scores


class TestEBMatchesReference:
    """The component-local EB reproduces the whole-graph reference exactly:
    partition, every dendrogram level, the best index and every score."""

    def test_random_multigraphs(self):
        rng = random.Random(2001)
        for _ in range(320):
            # Up to 60 nodes and often fewer edges than nodes: many graphs
            # are disconnected and keep isolated nodes.
            assert_eb_matches_reference(random_multigraph(
                rng, max_nodes=rng.randint(2, 60),
                max_edges=rng.randint(1, 150)))

    @pytest.mark.parametrize("shape", sorted(EB_TIE_HEAVY_GRAPHS))
    def test_tie_heavy_shapes(self, shape):
        assert_eb_matches_reference(EB_TIE_HEAVY_GRAPHS[shape]())

    def test_disjoint_shapes_with_isolated_nodes(self):
        pairs = TIE_HEAVY_SHAPES["disjoint_with_isolated"]
        assert_eb_matches_reference(graph_from_pairs(pairs, n=15))

    def test_isolated_nodes_without_edges(self):
        g = graph_from_pairs([], n=5)
        assert g.m == 0
        assert_eb_matches_reference(g)

    def test_hundred_nodes(self):
        assert_eb_matches_reference(
            random_sparse_multigraph(random.Random(100), 100, 4))


def test_eb_time_bound_hundred_nodes():
    """One EB run on 100 nodes and 400 edges, bounded with headroom for slow
    machines; a regression guard, not a test of the speedup."""
    g = random_sparse_multigraph(random.Random(7), 100, 4)
    start = time.perf_counter()
    detect_eb(g)
    assert time.perf_counter() - start < 8.0


def test_edge_betweenness_matches_networkx():
    """Unnormalised edge betweenness against networkx on simple graphs up to
    a few hundred nodes, disconnected ones included."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2006)
    for _ in range(12):
        n = rng.randint(2, 300)
        g = random_sparse_multigraph(rng, n, rng.choice([0.4, 0.8, 1.5, 3.0]))
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from((u, v) for u in range(n) for v in g.neighbors(u))
        assert reference.number_of_edges() == g.n_edges
        expected = nx.edge_betweenness_centrality(reference, normalized=False)
        scores = edge_betweenness(g)
        assert len(scores) == len(expected)
        for (u, v), value in expected.items():
            key = (u, v) if u < v else (v, u)
            assert scores[key] == pytest.approx(value, rel=1e-9)


def test_mo_best_q_matches_networkx_greedy():
    """Where MO's best-level Q does not depend on the seed, it equals the Q of
    networkx's greedy_modularity_communities (Clauset, Newman & Moore) with
    multiplicities as weights. Graphs whose Q varies with the seed have tied
    merges, which networkx breaks its own way, so they are left out."""
    nx = pytest.importorskip("networkx")
    compared = 0
    for trial in range(200):
        rng = random.Random(trial)
        n = rng.randint(5, 40)
        g = random_sparse_multigraph(rng, n, rng.randint(n, 3 * n) / n)
        q_values = {modularity(g, detect_mo(g, seed)[0]) for seed in range(30)}
        if len(q_values) > 1:
            continue
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_weighted_edges_from(
            (u, v, w) for u in range(n)
            for v, w in g.neighbors(u).items() if u < v)
        labels = [0] * n
        for label, block in enumerate(nx.community.greedy_modularity_communities(
                reference, weight="weight")):
            for u in block:
                labels[u] = label
        assert modularity(g, tuple(labels)) == pytest.approx(
            q_values.pop(), abs=1e-12), trial
        compared += 1
    assert compared >= 50


class TestLP:
    def test_single_edge_merges(self):
        part = detect_lp(graph_from_pairs([(0, 1)]), seed=0)
        assert len(set(part)) == 1

    def test_two_cliques_with_bridge(self):
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        pairs += [(i + 4, j + 4) for i, j in pairs[:6]]
        pairs.append((3, 4))
        g = graph_from_pairs(pairs)
        hits = 0
        for seed in range(100):
            part = detect_lp(g, seed)
            if sorted(map(sorted, blocks_of(part).values())) == [[0, 1, 2, 3], [4, 5, 6, 7]]:
                hits += 1
        assert hits >= 90

    def test_reproducible(self, two_triangles):
        assert detect_lp(two_triangles, 3) == detect_lp(two_triangles, 3)

    def test_fixpoint_property(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_multigraph(rng)
            part = detect_lp(g, seed=rng.randrange(1 << 32))
            for u in range(g.n_nodes):
                freq = Counter()
                for v, mult in g.neighbors(u).items():
                    freq[part[v]] += mult
                if freq:
                    assert freq[part[u]] == max(freq.values())

    def test_dense_relabeling(self, two_triangles):
        part = detect_lp(two_triangles, seed=1)
        assert set(part) == set(range(len(set(part))))

    def test_valid_partition(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_multigraph(rng)
            part = detect_lp(g, seed=rng.randrange(1 << 32))
            assert len(part) == g.n_nodes


def at_fixpoint(graph, partition):
    """Every node holds a label of maximal weight among its neighbours'."""
    for u in range(graph.n_nodes):
        freq = Counter()
        for v, mult in graph.neighbors(u).items():
            freq[partition[v]] += mult
        if freq and freq[partition[u]] != max(freq.values()):
            return False
    return True


def refine_run(graph, seed):
    return refine_packages(graph, tuple(f"p{u}" for u in range(graph.n_nodes)),
                           seed)


@pytest.mark.parametrize("run", [detect_lp, refine_run])
class TestSweepCap:
    """LP_SWEEP_CAP at 1: the warning fires only when the last permitted
    sweep ends away from the fixpoint."""

    def test_fixpoint_on_the_last_sweep_does_not_warn(self, run, monkeypatch):
        edge = graph_from_pairs([(0, 1)])
        uncapped = [run(edge, seed) for seed in range(5)]
        monkeypatch.setattr(detect, "LP_SWEEP_CAP", 1)
        for seed in range(5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # warned on seeds 0-2 before
                assert run(edge, seed) == uncapped[seed]

    def test_cap_hit_warns_once(self, run, monkeypatch):
        path = graph_from_pairs([(u, u + 1) for u in range(30)])
        monkeypatch.setattr(detect, "LP_SWEEP_CAP", 1)
        hits = 0
        for seed in range(10):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                part = run(path, seed)
            expected = 0 if at_fixpoint(path, part) else 1
            assert [w.category for w in caught] == [RuntimeWarning] * expected
            hits += expected
        assert hits >= 5


def assert_lp_matches_reference(graph, labels, seed):
    """`_lp_sweeps` against the Counter-tallied original: the same labels,
    compared by repr so that 1 and True stay apart, the same warnings, and
    the rng left in the same state."""
    runs = []
    for sweeps in (_lp_sweeps, lp_sweeps_reference):
        out, rng = list(labels), random.Random(seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweeps(graph, out, rng)
        runs.append(([repr(x) for x in out], rng.getstate(),
                     [(w.category, str(w.message)) for w in caught]))
    assert runs[0] == runs[1]


class TestLPMatchesReference:
    def test_random_multigraphs_with_isolated_nodes(self):
        rng = random.Random(2008)
        for _ in range(150):
            n = rng.randint(2, 80)
            g = random_sparse_multigraph(rng, n, rng.choice([0.3, 0.8, 2.0, 5.0]))
            assert_lp_matches_reference(g, list(range(n)), rng.randrange(1 << 32))

    def test_string_labels_through_refine(self):
        rng = random.Random(2009)
        for _ in range(60):
            n = rng.randint(2, 60)
            g = random_sparse_multigraph(rng, n, rng.choice([0.5, 1.5, 4.0]))
            initial = [f"p{rng.randrange(1 + n // 4)}" for _ in range(n)]
            seed = rng.randrange(1 << 32)
            assert_lp_matches_reference(g, initial, seed)
            expected = list(initial)
            lp_sweeps_reference(g, expected, random.Random(seed))
            assert refine_packages(g, tuple(initial), seed) == tuple(expected)

    def test_detect_lp_matches(self):
        rng = random.Random(2010)
        for _ in range(30):
            g = random_multigraph(rng, max_nodes=40, max_edges=80)
            seed = rng.randrange(1 << 32)
            expected = list(range(g.n_nodes))
            lp_sweeps_reference(g, expected, random.Random(seed))
            assert detect_lp(g, seed) == relabel_dense(expected)

    def test_sweep_cap_and_warning(self, monkeypatch):
        monkeypatch.setattr(detect, "LP_SWEEP_CAP", 2)
        monkeypatch.setattr(oracles, "LP_SWEEP_CAP", 2)
        path = graph_from_pairs([(u, u + 1) for u in range(40)])
        rng = random.Random(2011)
        for seed in range(20):
            assert_lp_matches_reference(path, list(range(41)), seed)
            g = random_sparse_multigraph(rng, 50, 1.5)
            assert_lp_matches_reference(g, list(range(50)), seed)

    def test_labels_equal_across_types(self):
        """1, True and 1.0 are one dict key, and the first one tallied
        stands for all; "1" is another key that sorts equal under str."""
        rng = random.Random(2012)
        pool = [1, True, 1.0, "1", 0, False, "True", 2]
        for _ in range(80):
            n = rng.randint(2, 30)
            g = random_sparse_multigraph(rng, n, rng.choice([0.8, 2.0]))
            initial = [rng.choice(pool) for _ in range(n)]
            assert_lp_matches_reference(g, initial, rng.randrange(1 << 32))

    def test_equal_label_of_another_type_drops_cached_candidates(self):
        """On the path 0-1-2 from labels [1, True, 2], seed 5's first sweep
        moves node 0 from 1 to True, an equal object of another type. Node
        1's maximal labels become [2, True] (they were [1, 2]), and it draws
        True; with its cached list kept because 1 == True, it would draw 2
        and all three would end at 2."""
        path = graph_from_pairs([(0, 1), (1, 2)])
        assert_lp_matches_reference(path, [1, True, 2], 5)
        labels = [1, True, 2]
        _lp_sweeps(path, labels, random.Random(5))
        assert [repr(x) for x in labels] == ["True"] * 3

    @pytest.fixture(scope="class")
    def generated_2000(self, tmp_path_factory):
        out = generate_tree(tmp_path_factory.mktemp("gen"), 1, 2000)
        return load_edge_list(
            (out / "expected_edges.tsv").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_2000_classes(self, generated_2000, seed):
        """`detect_lp` and `refine_packages` from P+ at benchmark scale."""
        g = generated_2000
        expected = list(range(g.n_nodes))
        lp_sweeps_reference(g, expected, random.Random(seed))
        assert detect_lp(g, seed) == relabel_dense(expected)
        _, packages_plus, _ = package_analysis(g)
        expected = list(packages_plus)
        lp_sweeps_reference(g, expected, random.Random(seed))
        assert refine_packages(g, packages_plus, seed) == tuple(expected)


class TestRefine:
    def test_two_triangles_refinement(self, two_triangles):
        initial = ("a", "a", "b", "c", "c", "c")
        q_before = modularity(two_triangles, initial)
        refined = refine_packages(two_triangles, initial, seed=0)
        q_after = modularity(two_triangles, refined)
        assert q_before == pytest.approx(0.193878, abs=1e-6)
        assert q_after == pytest.approx(TWO_TRIANGLES_Q)
        assert set(refined) <= set(initial)

    def test_lp_fixpoint_unchanged(self, two_triangles):
        fixpoint = detect_lp(two_triangles, seed=1)
        refined = refine_packages(two_triangles, fixpoint, seed=9)
        assert relabel_dense(refined) == relabel_dense(fixpoint)

    def test_label_subset_invariant(self):
        rng = random.Random(47)
        for _ in range(100):
            g = random_multigraph(rng)
            initial = random_partition(rng, g.n_nodes)
            refined = refine_packages(g, initial, seed=rng.randrange(1 << 32))
            assert set(refined) <= set(initial)

    def test_uncovering_initial_rejected(self, two_triangles):
        with pytest.raises(GraphError):
            refine_packages(two_triangles, ("a",), seed=0)


class TestPlantedPartition:
    def test_lp_recovers_clique_ring(self):
        from depnet import nmi

        g = clique_ring()
        planted = tuple(u // 8 for u in range(32))
        good = sum(
            nmi(detect_lp(g, seed), planted) >= 0.95 for seed in range(100)
        )
        assert good >= 90


def test_empty_graph_rejected():
    from depnet import ClassGraph

    empty = ClassGraph([], [])
    for call in (lambda: detect_eb(empty), lambda: detect_mo(empty, 0),
                 lambda: detect_lp(empty, 0)):
        with pytest.raises(GraphError):
            call()
