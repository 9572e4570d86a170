import io

import pytest
from hypothesis import given, strategies as st

from depnet import (ClassGraph, DependencyKind, GraphError, Partition,
                    build_graph, collapse_to_weighted, connected_components,
                    induced_subgraph, load_edge_list, modularity,
                    remove_isolated)

from conftest import graph_from_pairs

F = DependencyKind.FIELD
R = DependencyKind.RETURN
I = DependencyKind.INHERITANCE


def test_single_edge():
    g = build_graph(["A", "B"], [("A", "B", F)])
    assert g.n_nodes == 2
    assert g.m == 1
    assert g.degree == (1, 1)


def test_parallel_edges_kept():
    g = build_graph(["A", "B"], [("A", "B", F), ("A", "B", R)])
    assert g.m == 2
    assert g.degree == (2, 2)
    assert g.multiplicity(0, 1) == 2


def test_self_loop_dropped():
    g = build_graph(["A"], [("A", "A", I)])
    assert g.n_nodes == 1
    assert g.m == 0


def test_unknown_endpoint_rejected():
    with pytest.raises(GraphError, match="Nope"):
        build_graph(["A"], [("A", "Nope", F)])


def test_empty_class_list_rejected():
    with pytest.raises(GraphError):
        build_graph([], [])


def test_degree_sum_is_twice_edge_count(two_triangles):
    assert sum(two_triangles.degree) == 2 * two_triangles.m


def test_remove_isolated_drops_only_degree_zero():
    g = build_graph(["A", "B", "C"], [("A", "B", F)])
    trimmed = remove_isolated(g)
    assert trimmed.fqns == ("A", "B")
    assert trimmed.m == 1


def test_remove_isolated_identity_and_idempotent(two_triangles):
    assert remove_isolated(two_triangles) is two_triangles
    once = remove_isolated(build_graph(["A", "B", "C"], [("A", "B", F)]))
    assert remove_isolated(once) is once


def test_remove_isolated_all_isolated():
    g = build_graph(["A", "B"], [])
    assert remove_isolated(g).n_nodes == 0


def test_partition_rejects_a_mapping():
    # Labels come in node order; a mapping would silently be read by its keys.
    for labels in ({0: "a"}, {1: "a", 0: "b"}):
        with pytest.raises(GraphError, match="node order"):
            Partition(labels)


def test_partition_views_share_storage():
    part = Partition(["a", "b", "a"])
    assert part.labels == ("a", "b", "a")
    assert part.labels is part.labels
    assert part.blocks is part.blocks
    assert part.blocks == {"a": frozenset({0, 2}), "b": frozenset({1})}
    with pytest.raises(TypeError):
        part.blocks["c"] = frozenset()
    assert part.nodes == range(3)
    assert part.n_blocks == 2
    assert part.label_set() == {"a", "b"}
    assert part.relabel_dense() == Partition([0, 1, 0])
    assert part == Partition(["a", "b", "a"])
    assert part.same_blocks(Partition([5, 3, 5]))
    assert not part.same_blocks(Partition([5, 5, 3]))


def test_connected_components_path():
    g = graph_from_pairs([(0, 1), (1, 2)])
    assert connected_components(g).n_blocks == 1


def test_connected_components_two_pairs():
    g = graph_from_pairs([(0, 1), (2, 3)])
    parts = connected_components(g)
    assert sorted(map(sorted, parts.blocks.values())) == [[0, 1], [2, 3]]


def test_connected_components_bridged_triangles(two_triangles):
    assert connected_components(two_triangles).n_blocks == 1


def test_induced_subgraph_triangle_pair():
    g = graph_from_pairs([(0, 1), (0, 2), (1, 2)])
    sub = induced_subgraph(g, {0, 1})
    assert sub.n_nodes == 2
    assert sub.m == 1


def test_induced_subgraph_identity(two_triangles):
    sub = induced_subgraph(two_triangles, range(6))
    assert sub.m == two_triangles.m
    assert sub.fqns == two_triangles.fqns


def test_induced_subgraph_singleton(two_triangles):
    sub = induced_subgraph(two_triangles, {3})
    assert sub.n_nodes == 1
    assert sub.m == 0


def test_induced_subgraph_unknown_node(two_triangles):
    with pytest.raises(GraphError):
        induced_subgraph(two_triangles, {99})


def test_collapse_parallel():
    g = build_graph(["A", "B"], [("A", "B", F)] * 3)
    assert collapse_to_weighted(g) is g
    assert g.neighbors(0) == {1: 3}
    assert g.neighbors(1) == {0: 3}
    assert g.multiplicity(0, 1) == g.multiplicity(1, 0) == 3
    assert g.n_edges == 1


def test_collapse_simple_identity(two_triangles):
    g = two_triangles
    assert g.n_edges == 7
    assert all(g.multiplicity(u, v) == 1
               for u in range(g.n_nodes) for v in g.neighbors(u))
    assert g.multiplicity(0, 5) == 0
    assert sum(sum(g.neighbors(u).values()) for u in range(g.n_nodes)) == 2 * g.m


def test_neighbour_maps_are_exact_dicts(two_triangles):
    """EB sums floats in the iteration order of sets built from these maps,
    and CPython lays out a set built from an exact dict differently from one
    built from a dict subclass such as Counter: the output bytes rest on
    every construction path giving exact dicts."""
    edges_tsv = "#depnet-edges v1 isolated=drop\nA\tB\tfield\nB\tC\tfield\n"
    graphs = [
        ClassGraph(["A", "B", "C"], [(0, 1, F), (1, 0, R)]),
        two_triangles,
        remove_isolated(graph_from_pairs([(0, 2), (2, 3)], n=5)),
        induced_subgraph(two_triangles, {1, 2, 3}),
        load_edge_list(io.StringIO(edges_tsv)),
    ]
    for g in graphs:
        assert all(type(g.neighbors(u)) is dict for u in range(g.n_nodes))


@st.composite
def dependency_lists(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    fqns = [f"c{i}" for i in range(n)]
    deps = draw(st.lists(
        st.tuples(st.sampled_from(fqns), st.sampled_from(fqns),
                  st.sampled_from(list(DependencyKind))),
        min_size=1, max_size=12,
    ))
    return fqns, deps


@given(dependency_lists(), st.randoms(use_true_random=False))
def test_build_graph_order_insensitive(case, rng):
    fqns, deps = case
    g1 = build_graph(fqns, deps)
    shuffled = list(deps)
    rng.shuffle(shuffled)
    g2 = build_graph(fqns, shuffled)
    assert sorted(g1.degree) == sorted(g2.degree)
    assert g1.m == g2.m
    if g1.m:
        part = Partition([i % 2 for i in range(g1.n_nodes)])
        assert modularity(g1, part) == pytest.approx(modularity(g2, part), abs=1e-12)


@given(dependency_lists())
def test_degree_sum_invariant(case):
    fqns, deps = case
    g = build_graph(fqns, deps)
    assert sum(g.degree) == 2 * g.m
    assert sum(sum(g.neighbors(u).values()) for u in range(g.n_nodes)) == 2 * g.m
    assert g.n_edges == len({(u, v) for u, v, _ in g.edges})
