"""Community-abstraction networks: one node per community, weighted
inter-community edges, and per-community package distributions, exportable
as DOT, GraphML or JSON (schema v1)."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from typing import NamedTuple

from .errors import FormatError, GraphError
from .graph import ClassGraph, Partition, check_cover, component_labels


class Community(NamedTuple):
    label: str
    size: int
    packages: dict[str, int]
    self_weight: int

    def top_package(self) -> str:
        if not self.packages:
            return ""
        return min(self.packages, key=lambda p: (-self.packages[p], p))


class CommunityEdge(NamedTuple):
    a: str
    b: str
    weight: int


class CommunityGraph(NamedTuple):
    communities: tuple[Community, ...]  # sorted by label
    edges: tuple[CommunityEdge, ...]    # sorted by (a, b), a < b


def community_network(
    graph: ClassGraph,
    partition: Partition,
    packages: Partition,
) -> CommunityGraph:
    """Collapse a partition into its community graph.

    Inter-community multigraph edges become weighted edges; intra-community
    edges are kept as each node's self-weight. Package distributions come
    from the second partition.
    """
    check_cover(graph, partition)
    check_cover(graph, packages)
    node_label = [str(label) for label in partition]
    sizes: Counter = Counter(node_label)
    pkg_dist: dict[str, Counter] = {lbl: Counter() for lbl in sizes}
    for label, package in zip(node_label, packages):
        pkg_dist[label][str(package)] += 1
    self_weight: Counter = Counter()
    cross: Counter = Counter()
    for u, lu in enumerate(node_label):
        for v, mult in graph.neighbors(u).items():
            if u < v:
                lv = node_label[v]
                if lu == lv:
                    self_weight[lu] += mult
                else:
                    cross[tuple(sorted((lu, lv)))] += mult
    communities = tuple(
        Community(
            label=lbl,
            size=sizes[lbl],
            packages=dict(sorted(pkg_dist[lbl].items())),
            self_weight=self_weight[lbl],
        )
        for lbl in sorted(sizes)
    )
    edges = tuple(
        CommunityEdge(a, b, cross[(a, b)]) for a, b in sorted(cross)
    )
    assert sum(c.size for c in communities) == graph.n_nodes
    assert sum(e.weight for e in edges) + sum(c.self_weight for c in communities) == graph.m
    return CommunityGraph(communities, edges)


def largest_components_filter(cgraph: CommunityGraph, k: int) -> CommunityGraph:
    """Keep the k largest connected components by total class count; equal
    totals rank by smallest community label."""
    if k < 1:
        raise GraphError("k must be >= 1")
    adj: dict[str, list[str]] = {c.label: [] for c in cgraph.communities}
    for edge in cgraph.edges:
        adj[edge.a].append(edge.b)
        adj[edge.b].append(edge.a)
    # Starting from sorted labels numbers components by their smallest label.
    comp = component_labels(adj, sorted(adj))
    totals: Counter = Counter()
    for community in cgraph.communities:
        totals[comp[community.label]] += community.size
    keep = set(sorted(totals, key=lambda i: (-totals[i], i))[:k])
    communities = tuple(c for c in cgraph.communities if comp[c.label] in keep)
    edges = tuple(e for e in cgraph.edges if comp[e.a] in keep)
    return CommunityGraph(communities, edges)


def export(cgraph: CommunityGraph, fmt: str) -> str:
    """Serialize a community graph in one of `depnet.EXPORT_FORMATS`;
    output is byte-stable for a fixed input."""
    if fmt == "dot":
        return _export_dot(cgraph)
    if fmt == "graphml":
        return _export_graphml(cgraph)
    if fmt == "json":
        return _export_json(cgraph)
    raise FormatError(f"unknown export format {fmt!r}")


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(cgraph: CommunityGraph) -> str:
    max_weight = max((e.weight for e in cgraph.edges), default=1)
    lines = ["graph communities {", "  node [shape=ellipse];"]
    for c in cgraph.communities:
        width = round(0.5 + 0.3 * math.sqrt(c.size), 2)
        attrs = (
            f"label={_dot_quote(f'{c.label} ({c.size})')}, width={width}, "
            f"top_package={_dot_quote(c.top_package())}, self_weight={c.self_weight}"
        )
        lines.append(f"  {_dot_quote(c.label)} [{attrs}];")
    for e in cgraph.edges:
        penwidth = round(1.0 + 6.0 * e.weight / max_weight, 2)
        lines.append(
            f"  {_dot_quote(e.a)} -- {_dot_quote(e.b)} "
            f"[weight={e.weight}, penwidth={penwidth}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# The rules of xml.sax.saxutils' escape and quoteattr, which are not
# imported because they pull in urllib.request, http.client and email.
def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xml_quoteattr(text: str) -> str:
    text = (_xml_escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
            .replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


# A string of the characters that XML 1.0 allows; no escape writes others.
_XML_TEXT = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")


def _xml_label(label: str) -> str:
    """A label as a quoted attribute; FormatError if XML cannot hold it."""
    if not _XML_TEXT.fullmatch(label):
        raise FormatError(f"label {label!r} holds a character that XML 1.0 "
                          "forbids, so GraphML cannot hold it")
    return _xml_quoteattr(label)


def _export_graphml(cgraph: CommunityGraph) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="size" for="node" attr.name="size" attr.type="int"/>',
        '  <key id="self_weight" for="node" attr.name="self_weight" attr.type="int"/>',
        '  <key id="packages" for="node" attr.name="packages" attr.type="string"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>',
        '  <graph edgedefault="undirected">',
    ]
    for c in cgraph.communities:
        packages = json.dumps(c.packages, sort_keys=True)
        lines += [
            f"    <node id={_xml_label(c.label)}>",
            f'      <data key="size">{c.size}</data>',
            f'      <data key="self_weight">{c.self_weight}</data>',
            f'      <data key="packages">{_xml_escape(packages)}</data>',
            "    </node>",
        ]
    for e in cgraph.edges:
        lines += [
            f"    <edge source={_xml_label(e.a)} target={_xml_label(e.b)}>",
            f'      <data key="weight">{e.weight}</data>',
            "    </edge>",
        ]
    lines += ["  </graph>", "</graphml>"]
    return "\n".join(lines) + "\n"


def _export_json(cgraph: CommunityGraph) -> str:
    doc = {
        "version": 1,
        "communities": [c._asdict() for c in cgraph.communities],
        "edges": [e._asdict() for e in cgraph.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

