import random
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from depnet import (ClassGraph, GraphError, build_graph,
                    collapse_to_weighted, detect_eb,
                    detect_lp, detect_mo, induced_subgraph, load_edge_list,
                    load_partition, modularity, package_partition,
                    refine_packages, remove_isolated, run_batch,
                    split_disconnected, write_partition)
from depnet.detect import _edge_indexed
from depnet.graph import relabel_dense
from depnet.ingest import KINDS

from conftest import components, graph_from_pairs
from oracles import blocks_of

F, R, I = "field", "return", "inheritance"


def test_single_edge():
    g = build_graph(["A", "B"], [("A", "B", F)])
    assert g.n_nodes == 2
    assert g.m == 1
    assert g.degree == (1, 1)


def test_parallel_edges_kept():
    g = build_graph(["A", "B"], [("A", "B", F), ("A", "B", R)])
    assert g.m == 2
    assert g.degree == (2, 2)
    assert g.neighbors(0).get(1, 0) == 2


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


def test_relabel_dense():
    part = ("a", "b", "a")
    assert relabel_dense(part) == (0, 1, 0)
    # Equal dense labels mean the same grouping, whatever the labels.
    assert relabel_dense(part) == relabel_dense((5, 3, 5))
    assert relabel_dense(part) != relabel_dense((5, 5, 3))


def test_partition_producers_return_tuples(two_triangles):
    packages = package_partition(two_triangles)
    stored = write_partition(packages, two_triangles)
    produced = [
        relabel_dense(["a", "b", "a"]),
        detect_eb(two_triangles)[0],
        detect_mo(two_triangles, 0)[0],
        detect_lp(two_triangles, 0),
        refine_packages(two_triangles, packages, 0),
        run_batch(two_triangles, ("mo",), 2, 0, packages)["mo"][1],
        packages,
        load_partition(stored, two_triangles),
        split_disconnected(two_triangles, packages),
    ]
    assert [type(p) for p in produced] == [tuple] * len(produced)


def test_connected_components_path():
    g = graph_from_pairs([(0, 1), (1, 2)])
    assert len(set(components(g))) == 1


def test_connected_components_two_pairs():
    g = graph_from_pairs([(0, 1), (2, 3)])
    parts = components(g)
    assert sorted(map(sorted, blocks_of(parts).values())) == [[0, 1], [2, 3]]


def test_connected_components_bridged_triangles(two_triangles):
    assert len(set(components(two_triangles))) == 1


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
    assert g.neighbors(0).get(1, 0) == g.neighbors(1).get(0, 0) == 3
    assert g.n_edges == 1


def test_collapse_simple_identity(two_triangles):
    g = two_triangles
    assert g.n_edges == 7
    assert all(g.neighbors(u).get(v, 0) == 1
               for u in range(g.n_nodes) for v in g.neighbors(u))
    assert g.neighbors(0).get(5, 0) == 0
    assert sum(sum(g.neighbors(u).values()) for u in range(g.n_nodes)) == 2 * g.m


def first_seen(pairs, kept):
    """The neighbours of each node of `kept`, renumbered densely, in the
    order in which they first appear among the pairs inside `kept`."""
    new = {old: i for i, old in enumerate(sorted(kept))}
    order: list[dict] = [{} for _ in new]
    for u, v in pairs:
        if u in new and v in new and u != v:
            order[new[u]].setdefault(new[v])
            order[new[v]].setdefault(new[u])
    return [list(neighbours) for neighbours in order]


def test_neighbour_maps_are_read_only(two_triangles):
    """Each node's neighbours come as a read-only view, in the order in
    which they first appear in its input, on every construction path; EB
    visits them in that order."""
    g = build_graph(["A", "B", "C"], [("A", "B", F)])
    with pytest.raises(TypeError):
        g.neighbors(0)[2] = 1
    with pytest.raises(TypeError):
        del g.neighbors(0)[1]
    assert (g.degree, g.m) == ((1, 1, 0), 1)
    assert [dict(g.neighbors(u)) for u in range(3)] == [{1: 1}, {0: 1}, {}]

    rng = random.Random(5)
    # 24 nodes, node 7 in no pair; the pairs hold self-references,
    # reversed pairs and parallel pairs.
    nodes = [u for u in range(24) if u != 7]
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(60)]
    pairs += [(v, u) for u, v in pairs[:12]] + pairs[20:26]
    rng.shuffle(pairs)
    assert any(u == v for u, v in pairs)
    fqns = [f"n{u:02d}" for u in range(24)]
    deps = [(fqns[u], fqns[v], F) for u, v in pairs]
    built = build_graph(fqns, deps)
    trimmed = remove_isolated(built)
    assert trimmed.n_nodes < built.n_nodes
    inner = set(range(3, 20))
    edges_tsv = "#depnet-edges v1 isolated=keep\n" + "".join(
        f"{src}\t{dst}\t{kind}\n" for src, dst, kind in deps)
    # Node 0 meets 5, then 1, then 3; a set of them would give 1, 3, 5.
    fan = graph_from_pairs([(0, 5), (0, 1), (0, 3)])
    cases = [
        (built, first_seen(pairs, range(24))),
        (trimmed, first_seen(pairs, nodes)),
        (induced_subgraph(built, inner), first_seen(pairs, inner)),
        (load_edge_list(edges_tsv), first_seen(pairs, nodes)),
        (ClassGraph(["A", "B"], [Counter({1: 2}), Counter({0: 2})]),
         [[1], [0]]),
        (two_triangles, [[1, 2], [0, 2], [0, 1, 3], [2, 4, 5], [3, 5], [3, 4]]),
        (fan, [[5, 1, 3], [0], [], [0], [], [0]]),
    ]
    for g, order in cases:
        assert all(type(g.neighbors(u)) is MappingProxyType
                   for u in range(g.n_nodes))
        assert [list(g.neighbors(u)) for u in range(g.n_nodes)] == order
    assert list(_edge_indexed(fan)[1][0]) == [5, 1, 3]


@pytest.mark.parametrize("fqns, neighbors", [
    (["A", "A"], [{}, {}]),                 # duplicate fqns
    (["A", "B"], [{}]),                     # a node without a map
    (["A", "B"], [{2: 1}, {}]),             # neighbour out of range
    (["A", "B"], [{-1: 1}, {}]),
    (["A", "B"], [{0: 1}, {}]),             # a node its own neighbour
    (["A", "B"], [{1: 1}, {}]),             # the maps disagree
    (["A", "B"], [{1: 2}, {0: 1}]),
    (["A", "B"], [{1: 0}, {0: 0}]),         # no edge to count
])
def test_maps_no_multigraph_has_are_rejected(fqns, neighbors):
    with pytest.raises(GraphError):
        ClassGraph(fqns, neighbors)


@st.composite
def dependency_lists(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    fqns = [f"c{i}" for i in range(n)]
    deps = draw(st.lists(
        st.tuples(st.sampled_from(fqns), st.sampled_from(fqns),
                  st.sampled_from(KINDS)),
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
        part = tuple(i % 2 for i in range(g1.n_nodes))
        assert modularity(g1, part) == pytest.approx(modularity(g2, part), abs=1e-12)


@given(dependency_lists())
def test_degree_sum_invariant(case):
    fqns, deps = case
    g = build_graph(fqns, deps)
    assert sum(g.degree) == 2 * g.m
    assert sum(sum(g.neighbors(u).values()) for u in range(g.n_nodes)) == 2 * g.m
    assert g.n_edges == len({frozenset((src, dst))
                             for src, dst, _ in deps if src != dst})
