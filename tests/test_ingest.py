import io
from collections import Counter
from pathlib import Path

import pytest

from depnet import (FormatError, GraphError, ResolveError,
                    ResolveOptions, build_graph, load_edge_list,
                    load_partition, package_partition, parse_class_headers,
                    parse_corpus, remove_isolated, resolve_dependencies,
                    write_edge_list, write_partition)
from depnet.graph import relabel_dense
from depnet.ingest import KINDS, read_text

from conftest import CORPUS_DIR, GOLDEN_EDGES

F, I, P, R = "field", "inheritance", "parameter", "return"


def decls_of(*sources):
    out = []
    for text in sources:
        out.extend(parse_class_headers(text))
    return out


class TestResolve:
    def test_inheritance_in_corpus(self):
        decls = decls_of("class Foo extends Bar {}", "class Bar {}")
        fqns, deps = resolve_dependencies(decls)
        assert fqns == ["Bar", "Foo"]
        assert deps == [("Foo", "Bar", I)]

    def test_type_arguments_flag(self):
        decls = decls_of("class Foo { List<Baz> f; }", "class Baz {}")
        _, off = resolve_dependencies(decls)
        assert off == []
        _, on = resolve_dependencies(
            decls, ResolveOptions(include_type_arguments=True))
        assert on == [("Foo", "Baz", F)]

    def test_per_occurrence_multiplicity(self):
        decls = decls_of("class Foo { Baz m(Baz a, Baz b); }", "class Baz {}")
        _, deps = resolve_dependencies(decls)
        assert Counter(deps) == Counter(
            [("Foo", "Baz", R), ("Foo", "Baz", P), ("Foo", "Baz", P)])

    def test_import_precedence_over_package(self):
        decls = decls_of(
            "package p; import q.Baz; class Foo { Baz f; }",
            "package p; class Baz {}",
            "package q; class Baz {}",
        )
        _, deps = resolve_dependencies(decls)
        assert deps == [("p.Foo", "q.Baz", F)]

    def test_same_package_resolution(self):
        decls = decls_of(
            "package p; class Foo { Baz f; }",
            "package p; class Baz {}",
        )
        _, deps = resolve_dependencies(decls)
        assert deps == [("p.Foo", "p.Baz", F)]

    def test_same_package_candidates_prefer_longest_shared_prefix(self):
        decls = decls_of(
            "package p; class A { Inner f; class Inner {} }",
            "package p; class B { class Inner {} }",
        )
        _, deps = resolve_dependencies(decls)
        assert deps == [("p.A", "p.A.Inner", F)]

    def test_same_package_candidates_tied_are_ambiguous(self):
        decls = decls_of(
            "package p; class A { class Inner {} }",
            "package p; class B { class Inner {} }",
            "package p; class C { Inner f; }",
        )
        with pytest.raises(ResolveError, match="ambiguous reference 'Inner'"):
            resolve_dependencies(decls)

    def test_ambiguous_import_rejected(self):
        decls = decls_of(
            "package p; import a.Baz; import b.Baz; class Foo { Baz f; }")
        with pytest.raises(ResolveError, match="Baz"):
            resolve_dependencies(decls)

    def test_keep_external(self):
        decls = decls_of("class Foo { List f; }")
        fqns, deps = resolve_dependencies(
            decls, ResolveOptions(keep_external=True))
        assert fqns == ["Foo", "List"]
        assert deps == [("Foo", "List", F)]

    def test_externals_dropped_by_default(self):
        decls = decls_of("class Foo { List f; }")
        fqns, deps = resolve_dependencies(decls)
        assert fqns == ["Foo"]
        assert deps == []

    def test_constructor_toggle(self):
        decls = decls_of("package p; class A { A(B b); }", "package p; class B {}")
        _, with_ctor = resolve_dependencies(decls)
        assert with_ctor == [("p.A", "p.B", P)]
        _, without = resolve_dependencies(
            decls, ResolveOptions(include_constructors=False))
        assert without == []

    def test_self_reference_emitted_then_dropped_by_build(self):
        decls = decls_of("package p; class A { A next; }")
        fqns, deps = resolve_dependencies(decls)
        assert deps == [("p.A", "p.A", F)]
        assert build_graph(fqns, deps).m == 0

    def test_type_variable_never_resolves(self):
        decls = decls_of("package p; class Box<T> { T f; }", "package p; class T {}")
        _, deps = resolve_dependencies(decls)
        assert deps == []

    def test_method_type_variable_does_not_hide_a_class(self):
        decls = decls_of("package p; class A { <B> void f(B b); B field; }",
                         "package p; class B {}")
        _, deps = resolve_dependencies(decls)
        assert deps == [("p.A", "p.B", F)]

    def test_enclosing_type_variable_is_no_external_node(self):
        decls = decls_of("class A<T> { class In { T t; List<T> ts; } }")
        fqns, deps = resolve_dependencies(decls, ResolveOptions(
            keep_external=True, include_type_arguments=True))
        assert fqns == ["A", "A.In", "List"]
        assert deps == [("A.In", "List", F)]

    def test_primitive_type_arguments_are_no_external_nodes(self):
        decls = decls_of("class A { List<int[]> x; Map<String, double[]> y; }")
        fqns, _ = resolve_dependencies(decls, ResolveOptions(
            keep_external=True, include_type_arguments=True))
        assert fqns == ["A", "List", "Map", "String"]

    def test_qualified_reference_resolves_exactly(self):
        decls = decls_of(
            "package p; class Foo { q.Baz f; }",
            "package q; class Baz {}",
        )
        _, deps = resolve_dependencies(decls)
        assert deps == [("p.Foo", "q.Baz", F)]

    def test_empty_decls_rejected(self):
        with pytest.raises(ResolveError):
            resolve_dependencies([])


class TestEdgeList:
    def test_round_trip_single_edge(self):
        text = "#depnet-edges v1 isolated=drop\np.A\tp.B\tfield\n"
        buf = io.StringIO()
        write_edge_list([("p.B", "p.A", F)], buf)
        assert buf.getvalue() == text
        g = load_edge_list(io.StringIO(text))
        assert g.fqns == ("p.A", "p.B")
        assert g.m == 1

    def test_isolated_nodes_written_as_drop_and_round_trip(self):
        fqns = ["p.A", "p.B", "p.C", "p.D"]
        deps = [("p.A", "p.C", F), ("p.D", "p.D", R), ("p.C", "p.A", P)]
        buf = io.StringIO()
        write_edge_list(deps, buf)
        text = buf.getvalue()
        assert text == ("#depnet-edges v1 isolated=drop\n"
                        "p.A\tp.C\tfield\np.A\tp.C\tparameter\n")
        back = load_edge_list(io.StringIO(text))
        trimmed = remove_isolated(build_graph(fqns, deps))
        assert back.fqns == trimmed.fqns == ("p.A", "p.C")
        assert back.neighbors(0) == trimmed.neighbors(0) == {1: 2}
        assert back.neighbors(1) == trimmed.neighbors(1) == {0: 2}

    def test_keep_header_still_read(self):
        text = "#depnet-edges v1 isolated=keep\np.A\tp.B\tfield\n"
        assert load_edge_list(io.StringIO(text)).fqns == ("p.A", "p.B")

    def test_duplicate_lines_are_parallel_edges(self):
        text = ("#depnet-edges v1 isolated=drop\n"
                "p.A\tp.B\tfield\np.A\tp.B\tfield\n")
        assert load_edge_list(io.StringIO(text)).m == 2

    def test_bad_kind_names_line(self):
        text = "#depnet-edges v1 isolated=keep\nA\tB\tbogus\n"
        with pytest.raises(FormatError,
                           match="^line 2: unknown dependency kind 'bogus'$"):
            load_edge_list(io.StringIO(text))

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError, match="header"):
            load_edge_list(io.StringIO("A\tB\tfield\n"))

    def test_malformed_line_rejected(self):
        text = "#depnet-edges v1 isolated=keep\nA\tB\n"
        with pytest.raises(FormatError, match="line 2"):
            load_edge_list(io.StringIO(text))


class TestPackagePartition:
    def test_bottom_most_default(self):
        g = build_graph(["org.a.X", "org.a.Y"], [("org.a.X", "org.a.Y", F)])
        part = package_partition(g)
        assert set(part) == {"org.a"}

    def test_depth_truncation(self):
        g = build_graph(["org.a.b.X", "org.c.Y"], [("org.a.b.X", "org.c.Y", F)])
        part = package_partition(g, depth=1)
        assert set(part) == {"org"}

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        """Depth 0 used to put every class in package "", and -1 to cut
        segments from the end (a.b.c.D -> a.b)."""
        g = build_graph(["a.b.c.D", "X"], [("a.b.c.D", "X", F)])
        with pytest.raises(GraphError, match="package depth"):
            package_partition(g, depth)

    def test_default_package(self):
        g = build_graph(["X", "Y"], [("X", "Y", F)])
        part = package_partition(g)
        assert set(part) == {"(default)"}
        assert len(set(part)) == 1


class TestPartitionFile:
    def test_round_trip(self, two_triangles, triangle_partition):
        buf = io.StringIO()
        write_partition(triangle_partition, two_triangles, buf)
        buf.seek(0)
        loaded = load_partition(buf, two_triangles)
        assert relabel_dense(loaded) == relabel_dense(triangle_partition)

    def test_partial_cover_rejected(self, two_triangles):
        with pytest.raises(FormatError):
            load_partition(io.StringIO("n0\tx\n"), two_triangles)

    def test_unknown_fqn_rejected(self, two_triangles):
        with pytest.raises(FormatError, match=r"line 2: unknown class 'zzz'"):
            load_partition(io.StringIO("n0\tx\nzzz\tx\n"), two_triangles)

    def test_duplicate_fqn_rejected(self, two_triangles):
        rows = "".join(f"n{i}\tx\n" for i in range(6)) + "\nn3\ty\n"
        with pytest.raises(FormatError,
                           match=r"line 8: duplicate class 'n3' \(first on line 4\)"):
            load_partition(io.StringIO(rows), two_triangles)


class TestGoldenCorpus:
    def corpus_dependencies(self):
        sources = [(p.name, p.read_text()) for p in sorted(CORPUS_DIR.glob("*.chd"))]
        return parse_corpus(sources)

    def corpus_graph(self):
        return remove_isolated(build_graph(*self.corpus_dependencies()))

    def test_corpus_is_large_enough(self):
        assert len(list(CORPUS_DIR.glob("*.chd"))) >= 20

    def test_extraction_matches_golden_file(self):
        buf = io.StringIO()
        write_edge_list(self.corpus_dependencies()[1], buf)
        assert buf.getvalue() == GOLDEN_EDGES.read_text()

    def test_all_kinds_present(self):
        kinds = {k for _, _, k in self.corpus_dependencies()[1]}
        assert kinds == set(KINDS)

    def test_isolated_class_was_discarded(self):
        assert "shop.util.Strings" not in self.corpus_graph().fqns


def test_read_text_names_a_file_that_is_not_utf8(tmp_path):
    """A file that is not UTF-8 used to escape as a UnicodeDecodeError."""
    path = tmp_path / "latin1.chd"
    path.write_bytes("class Caf\xe9 {}".encode("latin-1"))
    with pytest.raises(FormatError, match="latin1.chd: not UTF-8"):
        read_text(path)
    path.write_bytes("class Café {}".encode("utf-8"))
    assert read_text(path) == "class Café {}"
