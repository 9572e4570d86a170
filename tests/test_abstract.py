import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from depnet import (FormatError, GraphError, community_network, export,
                    largest_components_filter)
from depnet.abstract import (Community, CommunityEdge, CommunityGraph,
                             _xml_escape, _xml_quoteattr)

from conftest import graph_from_pairs
from oracles import largest_components_filter_reference


def random_community_graph(rng: random.Random) -> CommunityGraph:
    """Sparse random community graph: isolated communities are common, and
    sizes 1-3 make equal component totals common too. Labels are digit
    strings, so their string order differs from their numeric order."""
    labels = sorted(rng.sample([str(i) for i in range(40)], rng.randint(1, 12)))
    communities = tuple(
        Community(label, rng.randint(1, 3), {"p": 1}, rng.randint(0, 2))
        for label in labels)
    pairs = set()
    if len(labels) > 1:
        for _ in range(rng.randint(0, len(labels))):
            pairs.add(tuple(sorted(rng.sample(labels, 2))))
    edges = tuple(CommunityEdge(a, b, rng.randint(1, 4)) for a, b in sorted(pairs))
    return CommunityGraph(communities, edges)


@pytest.fixture
def triangle_cgraph(two_triangles, triangle_partition):
    packages = ("pa", "pa", "pa", "pb", "pb", "pb")
    return community_network(two_triangles, triangle_partition, packages)


class TestCommunityNetwork:
    def test_two_triangles(self, triangle_cgraph):
        assert [c.size for c in triangle_cgraph.communities] == [3, 3]
        assert len(triangle_cgraph.edges) == 1
        assert triangle_cgraph.edges[0].weight == 1
        assert [c.packages for c in triangle_cgraph.communities] == \
            [{"pa": 3}, {"pb": 3}]
        assert [c.self_weight for c in triangle_cgraph.communities] == [3, 3]

    def test_single_block(self, two_triangles):
        one = ("all",) * 6
        cg = community_network(two_triangles, one, one)
        assert len(cg.communities) == 1
        assert cg.communities[0].self_weight == two_triangles.m
        assert cg.edges == ()

    def test_conservation(self, two_triangles):
        part = ("a", "a", "b", "b", "c", "c")
        pkgs = tuple(f"p{i % 2}" for i in range(6))
        cg = community_network(two_triangles, part, pkgs)
        assert sum(c.size for c in cg.communities) == two_triangles.n_nodes
        assert sum(e.weight for e in cg.edges) + \
            sum(c.self_weight for c in cg.communities) == two_triangles.m

    def test_uncovering_partition_rejected(self, two_triangles):
        with pytest.raises(GraphError):
            community_network(two_triangles, ("a",), ("a",))


class TestComponentsFilter:
    def two_component_cgraph(self):
        g = graph_from_pairs([(0, 1), (2, 3)])
        part = ("a", "b", "c", "d")
        pkgs = ("p",) * 4
        return community_network(g, part, pkgs)

    def test_keep_all_when_k_large(self, triangle_cgraph):
        assert largest_components_filter(triangle_cgraph, 10) == triangle_cgraph

    def test_keeps_largest(self):
        g = graph_from_pairs([(0, 1), (0, 2), (3, 4)])
        part = ("a", "b", "c", "x", "y")
        pkgs = ("p",) * 5
        cg = community_network(g, part, pkgs)
        filtered = largest_components_filter(cg, 1)
        assert [c.label for c in filtered.communities] == ["a", "b", "c"]

    def test_equal_totals_keep_smallest_label(self):
        """{b} and {a, c} both hold 2 classes; the component holding the
        smallest label, a, ranks first."""
        cg = CommunityGraph(
            (Community("a", 1, {}, 0), Community("b", 2, {}, 0),
             Community("c", 1, {}, 0)),
            (CommunityEdge("a", "c", 1),))
        filtered = largest_components_filter(cg, 1)
        assert [c.label for c in filtered.communities] == ["a", "c"]

    def test_matches_union_find_reference(self):
        rng = random.Random(20)
        tied = 0
        for _ in range(300):
            cg = random_community_graph(rng)
            one = largest_components_filter_reference(cg, 1)
            two = largest_components_filter_reference(cg, 2)
            tied += sum(c.size for c in one.communities) == \
                sum(c.size for c in two.communities) - \
                sum(c.size for c in one.communities)
            for k in range(1, len(cg.communities) + 2):
                assert largest_components_filter(cg, k) == \
                    largest_components_filter_reference(cg, k)
        assert tied > 20  # the smallest-label tie rule was exercised

    def test_bad_k(self, triangle_cgraph):
        with pytest.raises(GraphError):
            largest_components_filter(triangle_cgraph, 0)


class TestExport:
    def test_dot_structure(self, triangle_cgraph):
        text = export(triangle_cgraph, "dot")
        assert text.startswith("graph communities {")
        assert text.count(" -- ") == 1
        assert text.count("label=") == 2
        assert text.endswith("}\n")

    def test_graphml_well_formed(self, triangle_cgraph):
        import xml.etree.ElementTree as ET

        text = export(triangle_cgraph, "graphml")
        root = ET.fromstring(text)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert len(root.findall(f"{ns}graph/{ns}node")) == 2
        assert len(root.findall(f"{ns}graph/{ns}edge")) == 1

    @given(st.one_of(st.text(alphabet="ab&<>\"'\n\r\t#\u00e9"), st.text()))
    @settings(max_examples=500, deadline=None)
    def test_xml_escaping_matches_saxutils(self, text):
        from xml.sax.saxutils import escape, quoteattr

        assert _xml_escape(text) == escape(text)
        assert _xml_quoteattr(text) == quoteattr(text)

    def test_graphml_round_trips_special_characters(self):
        """Labels and package names holding every character that XML
        escapes, each quote alone and both together, read back unchanged."""
        import xml.etree.ElementTree as ET

        specials = "&<>\"'\n\r\t"
        labels = sorted([f"a{c}b" for c in specials] + [specials, "x'y", 'x"y'])
        communities = tuple(
            Community(label, 2, {f"p{label}": 1, "q&<>": 1}, 1)
            for label in labels)
        edges = tuple(CommunityEdge(a, b, i + 1)
                      for i, (a, b) in enumerate(zip(labels, labels[1:])))
        text = export(CommunityGraph(communities, edges), "graphml")
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph = ET.fromstring(text).find(f"{ns}graph")
        nodes = graph.findall(f"{ns}node")
        assert [node.get("id") for node in nodes] == labels
        assert [json.loads(node.find(f"{ns}data[@key='packages']").text)
                for node in nodes] == [c.packages for c in communities]
        assert [(edge.get("source"), edge.get("target"))
                for edge in graph.findall(f"{ns}edge")] == \
            [(e.a, e.b) for e in edges]

    @pytest.mark.parametrize("label", ["a\x0bb", "\x00", "a\x1f", "\ufffe",
                                       "\ud800", "\uffff"])
    def test_graphml_rejects_what_xml_cannot_hold(self, label):
        """XML 1.0 forbids these characters, escaped or not; the export used
        to write them, and `ElementTree` then failed with "not well-formed"."""
        for communities, edges in [
                ((Community(label, 1, {}, 0),), ()),
                ((Community("a", 1, {}, 0), Community(label, 1, {}, 0)),
                 (CommunityEdge("a", label, 1),))]:
            with pytest.raises(FormatError, match=re.escape(repr(label))):
                export(CommunityGraph(communities, edges), "graphml")

    def test_graphml_keeps_what_xml_can_hold(self):
        import xml.etree.ElementTree as ET

        labels = sorted(["\t \n\r", "\ud7ff", "\ue000\ufffd", "\U00010000",
                         "\U0010ffff"])
        text = export(CommunityGraph(
            tuple(Community(label, 1, {}, 0) for label in labels), ()),
            "graphml")
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert [node.get("id") for node in ET.fromstring(text).iter(
            f"{ns}node")] == labels

    def test_json_round_trip(self, triangle_cgraph):
        doc = json.loads(export(triangle_cgraph, "json"))
        assert doc == {
            "version": 1,
            "communities": [c._asdict() for c in triangle_cgraph.communities],
            "edges": [e._asdict() for e in triangle_cgraph.edges],
        }

    def test_deterministic(self, triangle_cgraph):
        for fmt in ("dot", "graphml", "json"):
            assert export(triangle_cgraph, fmt) == export(triangle_cgraph, fmt)

    def test_empty_graph_every_format(self, two_triangles):
        from depnet.abstract import CommunityGraph

        empty = CommunityGraph((), ())
        assert export(empty, "dot").endswith("}\n")
        assert json.loads(export(empty, "json")) == \
            {"version": 1, "communities": [], "edges": []}
        import xml.etree.ElementTree as ET
        ET.fromstring(export(empty, "graphml"))

    def test_unknown_format_rejected(self, triangle_cgraph):
        with pytest.raises(FormatError):
            export(triangle_cgraph, "svg")

    def test_top_package(self, two_triangles, triangle_partition):
        pkgs = ("x", "y", "y", "z", "z", "z")
        cg = community_network(two_triangles, triangle_partition, pkgs)
        assert cg.communities[0].top_package() == "y"
        assert cg.communities[1].top_package() == "z"
