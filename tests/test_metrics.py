import random

import pytest
from hypothesis import given, settings, strategies as st

from depnet import (GraphError, Partition, build_graph, connected_components,
                    detect_lp, detect_mo, fit_power_law, induced_subgraph,
                    modularity, nmi, run_batch, size_distribution,
                    split_disconnected)
from depnet.graph import DependencyKind
from depnet.metrics import package_analysis

from conftest import graph_from_pairs
from oracles import (modularity_ordered_pairs, nmi_direct, random_multigraph,
                     random_partition, random_sparse_multigraph,
                     split_disconnected_reference)


class TestModularity:
    def test_one_block_is_zero(self, two_triangles):
        part = Partition([0] * 6)
        assert modularity(two_triangles, part) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles_value(self, two_triangles, triangle_partition):
        q = modularity(two_triangles, triangle_partition)
        assert q == pytest.approx(5 / 14, abs=1e-12)
        assert q == pytest.approx(
            modularity_ordered_pairs(two_triangles, triangle_partition), abs=1e-12)

    def test_singleton_closed_form(self, two_triangles):
        part = Partition(range(6))
        expected = -sum(k * k for k in two_triangles.degree) / (2 * two_triangles.m) ** 2
        assert modularity(two_triangles, part) == pytest.approx(expected, abs=1e-12)
        assert expected < 0

    def test_matches_ordered_pair_oracle_on_random_inputs(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_multigraph(rng)
            part = random_partition(rng, g.n_nodes)
            assert modularity(g, part) == pytest.approx(
                modularity_ordered_pairs(g, part), abs=1e-12)

    def test_relabeling_invariant(self, two_triangles, triangle_partition):
        renamed = Partition([f"blk{lbl}" for lbl in triangle_partition.labels])
        assert modularity(two_triangles, renamed) == \
            modularity(two_triangles, triangle_partition)

    def test_empty_graph_rejected(self):
        g = build_graph(["A", "B"], [])
        with pytest.raises(GraphError):
            modularity(g, Partition([0, 0]))

    def test_partial_cover_rejected(self, two_triangles):
        with pytest.raises(GraphError):
            modularity(two_triangles, Partition([0]))


class TestNMI:
    def test_identical_is_one(self):
        part = Partition([0, 0, 1, 1])
        assert nmi(part, part) == 1.0

    def test_independent_is_zero(self):
        a = Partition([0, 0, 1, 1])
        b = Partition([0, 1, 0, 1])
        assert nmi(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        a = Partition([0, 0, 1, 1])
        b = Partition([0, 0, 0, 1])
        assert nmi(a, b) == pytest.approx(0.3437, abs=5e-4)
        assert nmi(a, b) == pytest.approx(nmi_direct(a, b), abs=1e-12)

    def test_both_trivial_is_one(self):
        a = Partition(["x", "x"])
        b = Partition(["y", "y"])
        assert nmi(a, b) == 1.0

    def test_symmetry_and_bounds_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 12)
            a, b = random_partition(rng, n), random_partition(rng, n)
            assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
            assert -1e-12 <= nmi(a, b) <= 1 + 1e-12

    def test_mismatched_nodes_rejected(self):
        with pytest.raises(GraphError):
            nmi(Partition([0, 0]), Partition([0]))
        with pytest.raises(GraphError):
            nmi(Partition([0]), Partition([0, 0]))

    def test_equal_partitions_give_identical_nmi(self):
        # Equal partitions built from dicts in different insertion orders:
        # nmi's float sums must not depend on how a partition was built.
        labels = {0: 1, 1: 0, 2: 0, 3: 1, 4: 2, 5: 2, 6: 2, 7: 0, 8: 3, 9: 2,
                  10: 2, 11: 3, 12: 3}
        order = [11, 8, 10, 6, 4, 0, 3, 5, 12, 1, 9, 7, 2]
        shuffled = {node: labels[node] for node in order}
        a = Partition(labels[node] for node in range(13))
        b = Partition(shuffled[node] for node in range(13))
        ref = Partition([1, 0, 0, 2, 0, 0, 1, 2, 1, 0, 0, 1, 1])
        assert a == b
        assert nmi(a, ref) == nmi(b, ref)
        assert nmi(ref, a) == nmi(ref, b)


class TestSplitDisconnected:
    def test_disconnected_block_split(self):
        g = graph_from_pairs([(0, 1), (2, 3)])
        part = Partition(["pkg"] * 4)
        result = split_disconnected(g, part)
        assert result.n_blocks == 2
        assert result.label_set() == {"pkg#1", "pkg#2"}

    def test_connected_blocks_untouched(self, two_triangles, triangle_partition):
        result = split_disconnected(two_triangles, triangle_partition)
        assert result == triangle_partition

    def test_idempotent(self):
        g = graph_from_pairs([(0, 1), (2, 3), (4, 5)])
        part = Partition(["p"] * 6)
        once = split_disconnected(g, part)
        assert split_disconnected(g, once) == once

    def test_every_result_block_connected(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_multigraph(rng)
            part = random_partition(rng, g.n_nodes)
            result = split_disconnected(g, part)
            for block in result.blocks.values():
                sub = induced_subgraph(g, block)
                assert connected_components(sub).n_blocks == 1

    def test_label_order_matches_reference(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_sparse_multigraph(rng, rng.randint(2, 300),
                                         rng.choice([0.5, 1.0, 2.0]))
            part = random_partition(rng, g.n_nodes)
            assert (split_disconnected(g, part).labels
                    == split_disconnected_reference(g, part).labels)


class TestPackageAnalysis:
    def test_split_packages_listed(self):
        F = DependencyKind.FIELD
        g = build_graph(["a.A", "a.B", "a.C", "b.D", "b.E"],
                        [("a.A", "a.B", F), ("b.D", "b.E", F), ("a.C", "b.D", F)])
        packages, packages_plus, disconnected = package_analysis(g)
        assert packages.labels == ("a", "a", "a", "b", "b")
        assert packages_plus.labels == ("a#1", "a#1", "a#2", "b", "b")
        assert disconnected == ["a"]


class TestAgainstNetworkx:
    """Q and components against networkx, on the weighted simple graph whose
    weights are the edge multiplicities."""

    @staticmethod
    def simple_graph(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n_nodes))
        for u in range(g.n_nodes):
            for v, w in g.neighbors(u).items():
                h.add_edge(u, v, weight=w)
        assert h.number_of_edges() == g.n_edges
        return h

    def test_modularity(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(43)
        for n in (12, 60, 300, 2000):
            g = random_sparse_multigraph(rng, n, rng.choice([0.7, 1.5, 4.0]))
            h = self.simple_graph(nx, g)
            packages = Partition([u * 7 // n for u in range(n)])
            partitions = [
                random_partition(rng, n),
                detect_mo(g, rng.randrange(1 << 32))[0],
                detect_lp(g, rng.randrange(1 << 32)),
                split_disconnected(g, packages),
            ]
            for part in partitions:
                expected = nx.community.modularity(h, part.blocks.values(),
                                                   weight="weight")
                assert modularity(g, part) == pytest.approx(expected, rel=1e-9)

    def test_connected_components(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(47)
        for n in (12, 60, 300, 2000):
            g = random_sparse_multigraph(rng, n, rng.choice([0.3, 0.5, 1.0]))
            expected = {frozenset(c) for c in
                        nx.connected_components(self.simple_graph(nx, g))}
            assert set(connected_components(g).blocks.values()) == expected


class TestSizeDistribution:
    def test_ccdf_values(self):
        part = Partition(["a", "a", "b", "b", "c", "c", "c", "c"])
        dist = size_distribution(part)
        assert dist.sizes == [2, 2, 4]
        assert dist.ccdf[2] == pytest.approx(1.0)
        assert dist.ccdf[4] == pytest.approx(1 / 3)

    def test_single_block(self):
        dist = size_distribution(Partition(["a", "a"]))
        assert dist.ccdf == {2: 1.0}

    def test_all_singletons(self):
        dist = size_distribution(Partition(range(5)))
        assert dist.ccdf == {1: 1.0}

    def test_ccdf_non_increasing(self):
        rng = random.Random(17)
        part = random_partition(rng, 30)
        dist = size_distribution(part)
        values = [dist.ccdf[s] for s in sorted(dist.ccdf)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(1.0)


class TestPowerLawFit:
    def test_declined_with_too_few_sizes(self):
        assert fit_power_law([5, 6]) is None
        assert fit_power_law([1, 2, 3], xmin=3) is None

    @pytest.mark.parametrize("xmin", [0, -2])
    def test_xmin_below_one_rejected(self, xmin):
        """xmin = 0 used to divide by zero in the zeta tail."""
        for sizes in ([1, 2, 3, 5], [4]):
            with pytest.raises(GraphError, match="xmin"):
                fit_power_law(sizes, xmin)
        with pytest.raises(GraphError, match="xmin"):
            size_distribution(Partition(["a", "a", "b"]), xmin)

    def test_degenerate_discrete_fit_declined(self):
        assert fit_power_law([1, 1, 1, 1]) is None

    def test_discrete_matches_zeta_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        sizes = [1] * 40 + [2] * 12 + [3] * 5 + [4] * 2 + [9]
        alpha = fit_power_law(sizes)
        # oracle: scan the exact zeta-normalized likelihood on a fine grid
        import math as m
        log_sum = sum(m.log(s) for s in sizes)
        grid = [1.01 + i * 1e-3 for i in range(4000)]
        best = max(grid, key=lambda a: -a * log_sum
                   - len(sizes) * m.log(float(mpmath.zeta(a, 1))))
        assert alpha == pytest.approx(best, abs=2e-3)

    def test_recovers_exponent_from_samples(self):
        numpy = pytest.importorskip("numpy")
        hits = 0
        for seed in range(20):
            samples = numpy.random.default_rng(seed).zipf(2.0, size=10_000)
            alpha = fit_power_law(samples.tolist())
            if 1.9 <= alpha <= 2.1:
                hits += 1
        assert hits >= 19


class TestRunBatch:
    def test_single_run_mean(self, two_triangles, triangle_partition):
        stats, best = run_batch(two_triangles, "lp", 1, 42, triangle_partition)
        assert stats.mean_q == stats.q_values[0]
        assert best.covers(two_triangles)

    def test_mo_unique_optimum(self, two_triangles, triangle_partition):
        stats, best = run_batch(two_triangles, "mo", 5, 0, triangle_partition)
        assert stats.mean_q == pytest.approx(5 / 14)
        assert stats.peak_nmi == pytest.approx(1.0)
        assert best.same_blocks(triangle_partition)

    def test_eb_runs_once(self, two_triangles, triangle_partition):
        stats, _ = run_batch(two_triangles, "eb", 10, 0, triangle_partition)
        assert len(stats.q_values) == 1

    def test_mean_within_bounds(self, two_triangles, triangle_partition):
        stats, _ = run_batch(two_triangles, "lp", 20, 0, triangle_partition)
        assert min(stats.q_values) <= stats.mean_q <= max(stats.q_values)
        assert stats.peak_nmi == max(stats.nmi_values)

    def test_unknown_algorithm(self, two_triangles, triangle_partition):
        with pytest.raises(GraphError):
            run_batch(two_triangles, "louvain", 1, 0, triangle_partition)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_modularity_oracle_agreement_property(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng)
    part = random_partition(rng, g.n_nodes)
    assert modularity(g, part) == pytest.approx(
        modularity_ordered_pairs(g, part), abs=1e-12)
