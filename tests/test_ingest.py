import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from depnet import (DepnetError, FormatError, GraphError, ParseError,
                    ResolveError, ResolveOptions, build_graph, load_edge_list,
                    load_partition, package_partition, parse_class_headers,
                    parse_corpus, remove_isolated, resolve_dependencies,
                    write_edge_list, write_partition)
from depnet import headers, ingest
from depnet.graph import relabel_dense
from depnet.ingest import KINDS, read_text

from conftest import CORPUS_DIR, GOLDEN_EDGES, generate_tree, use_cpus

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

    def test_externals_sorted_among_classes(self):
        """Classes and externals share one sorted order, the order in which
        `load_edge_list` lists the same nodes."""
        decls = decls_of("package p; class Foo { a.List f; }")
        fqns, _ = resolve_dependencies(
            decls, ResolveOptions(keep_external=True))
        assert fqns == ["a.List", "p.Foo"]

    def test_class_declared_in_two_files_rejected(self):
        decls = decls_of("package p; class A {}", "package p; class A { B b; }")
        with pytest.raises(ResolveError, match="^duplicate class 'p.A'$"):
            resolve_dependencies(decls)

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
        assert write_edge_list([("p.B", "p.A", F)]) == text
        g = load_edge_list(text)
        assert g.fqns == ("p.A", "p.B")
        assert g.m == 1

    def test_isolated_nodes_written_as_drop_and_round_trip(self):
        fqns = ["p.A", "p.B", "p.C", "p.D"]
        deps = [("p.A", "p.C", F), ("p.D", "p.D", R), ("p.C", "p.A", P)]
        text = write_edge_list(deps)
        assert text == ("#depnet-edges v1 isolated=drop\n"
                        "p.A\tp.C\tfield\np.A\tp.C\tparameter\n")
        back = load_edge_list(text)
        trimmed = remove_isolated(build_graph(fqns, deps))
        assert back.fqns == trimmed.fqns == ("p.A", "p.C")
        assert back.neighbors(0) == trimmed.neighbors(0) == {1: 2}
        assert back.neighbors(1) == trimmed.neighbors(1) == {0: 2}

    def test_keep_header_still_read(self):
        text = "#depnet-edges v1 isolated=keep\np.A\tp.B\tfield\n"
        assert load_edge_list(text).fqns == ("p.A", "p.B")

    def test_duplicate_lines_are_parallel_edges(self):
        text = ("#depnet-edges v1 isolated=drop\n"
                "p.A\tp.B\tfield\np.A\tp.B\tfield\n")
        assert load_edge_list(text).m == 2

    def test_bad_kind_names_line(self):
        text = "#depnet-edges v1 isolated=keep\nA\tB\tbogus\n"
        with pytest.raises(FormatError,
                           match="^line 2: unknown dependency kind 'bogus'$"):
            load_edge_list(text)

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError, match="header"):
            load_edge_list("A\tB\tfield\n")

    def test_malformed_line_rejected(self):
        text = "#depnet-edges v1 isolated=keep\nA\tB\n"
        with pytest.raises(FormatError, match="line 2"):
            load_edge_list(text)


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
        text = write_partition(triangle_partition, two_triangles)
        loaded = load_partition(text, two_triangles)
        assert relabel_dense(loaded) == relabel_dense(triangle_partition)

    def test_partial_cover_rejected(self, two_triangles):
        with pytest.raises(FormatError):
            load_partition("n0\tx\n", two_triangles)

    def test_unknown_fqn_rejected(self, two_triangles):
        with pytest.raises(FormatError, match=r"line 2: unknown class 'zzz'"):
            load_partition("n0\tx\nzzz\tx\n", two_triangles)

    def test_duplicate_fqn_rejected(self, two_triangles):
        rows = "".join(f"n{i}\tx\n" for i in range(6)) + "\nn3\ty\n"
        with pytest.raises(FormatError,
                           match=r"line 8: duplicate class 'n3' \(first on line 4\)"):
            load_partition(rows, two_triangles)


class TestGoldenCorpus:
    def corpus_dependencies(self):
        sources = [(p.name, p.read_text()) for p in sorted(CORPUS_DIR.glob("*.chd"))]
        return parse_corpus(sources)

    def corpus_graph(self):
        return remove_isolated(build_graph(*self.corpus_dependencies()))

    def test_corpus_is_large_enough(self):
        assert len(list(CORPUS_DIR.glob("*.chd"))) >= 20

    def test_extraction_matches_golden_file(self):
        assert (write_edge_list(self.corpus_dependencies()[1])
                == GOLDEN_EDGES.read_text())

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


@pytest.mark.parametrize("raw", [
    b"class A {}\r\nclass B {}\r\n",
    b"class A {}\rclass B {}",
    b"class A {}\r\r\nclass B {}",
    b"class A {}\r",
    b"x" * 8191 + b"\r\n" + b"y" * 8191 + b"\r",
], ids=["crlf", "lone-cr", "cr-crlf", "trailing-cr", "cr-at-8k"])
def test_read_text_equals_a_text_mode_read(tmp_path, raw):
    """`read_text` decodes the bytes and translates line ends itself, as a
    text-mode read does: error positions and report digests depend on it."""
    path = tmp_path / "a.chd"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as stream:
        assert read_text(path) == stream.read()


def test_read_text_drops_one_leading_bom(tmp_path):
    """A byte-order mark at the start of a file is dropped, so a file saved
    with one reads as the same file saved without; a second one is text."""
    path = tmp_path / "a.chd"
    for raw in (b"\xef\xbb\xbfclass A {}\r\n",
                b"\xef\xbb\xbf\xef\xbb\xbfclass A {}\n"):
        path.write_bytes(raw)
        with open(path, encoding="utf-8") as stream:
            assert read_text(path) == stream.read()[1:]


class TestForkedParse:
    """`parse_corpus` parses its first share in this process and each other
    share in a forked child. MIN_SHARE_CHARS is set to 1 and the usable
    CPUs are set by hand, so the share count is min(CPUs, files) whatever
    the machine."""

    BROKEN = "class {"  # ParseError: expected identifier, found '{'

    @pytest.fixture
    def shares(self, monkeypatch):
        """Sets the share count to min(count, files); returns the list of
        the children forked from then on (see `use_cpus`)."""
        monkeypatch.setattr(ingest, "MIN_SHARE_CHARS", 1)
        return lambda count: use_cpus(monkeypatch, count)

    @staticmethod
    def assert_no_child() -> None:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def corpus() -> list[tuple[str, str]]:
        return [(p.name, p.read_text())
                for p in sorted(CORPUS_DIR.glob("*.chd"))]

    def parse_error(self, sources) -> str:
        with pytest.raises(ParseError) as caught:
            parse_corpus(sources)
        self.assert_no_child()
        return str(caught.value)

    def test_same_result_for_every_share_count(self, shares, tmp_path):
        tree = generate_tree(tmp_path, 4, 240) / "src"
        generated = [(str(p), p.read_text())
                     for p in sorted(tree.rglob("*.chd"))]
        assert len(generated) >= 200
        for sources in (self.corpus(), generated):
            results = []
            for count in (1, 2, 3):
                forks = shares(count)
                results.append(parse_corpus(sources))
                assert len(forks) == count - 1
                self.assert_no_child()
            assert results[0] == results[1] == results[2]

    def test_small_corpus_forks_nothing(self, monkeypatch):
        """The golden corpus is under 2 * MIN_SHARE_CHARS: one share."""
        forks = use_cpus(monkeypatch, 3)
        sources = self.corpus()
        assert sum(len(text) for _, text in sources) \
            < 2 * ingest.MIN_SHARE_CHARS
        parse_corpus(sources)
        assert forks == []

    def test_first_error_in_file_order_wins(self, shares):
        sources = self.corpus()
        first = [("first.chd", self.BROKEN), *sources[1:]]
        last = [*sources[:-1], ("last.chd", self.BROKEN)]
        both = [("first.chd", self.BROKEN), *sources[1:-1],
                ("last.chd", self.BROKEN)]
        # With three shares, an error in the second child's share comes
        # after one in the first child's.
        mid = len(sources) // 2
        middle = [*sources[:mid], ("middle.chd", self.BROKEN),
                  *sources[mid + 1:-1], ("last.chd", self.BROKEN)]
        cases = (first, last, both, middle)
        shares(1)
        expected = [self.parse_error(s) for s in cases]
        assert expected[0].startswith("first.chd:1:7: expected identifier")
        assert expected[1].startswith("last.chd:1:7: expected identifier")
        assert expected[2] == expected[0]
        assert expected[3].startswith("middle.chd:1:7: expected identifier")
        for count in (2, 3):
            shares(count)
            assert [self.parse_error(s) for s in cases] == expected

    def test_child_that_dies_raises(self, shares, monkeypatch):
        parse = headers.parse_class_headers
        own = os.getpid()

        def die_in_child(text, filename=None):
            if os.getpid() != own:
                os._exit(3)
            return parse(text, filename)

        monkeypatch.setattr(headers, "parse_class_headers", die_in_child)
        shares(2)
        with pytest.raises(DepnetError,
                           match="a worker process died in mid-run"):
            parse_corpus(self.corpus())
        self.assert_no_child()

    def test_interrupt_in_own_share_stops_every_child(self, shares,
                                                      monkeypatch):
        """Slowed, both children are still busy when this process takes
        the third share, whose first file interrupts it."""
        parse = headers.parse_class_headers
        own = os.getpid()

        def interrupt_in_own(text, filename=None):
            if os.getpid() == own:
                raise KeyboardInterrupt
            time.sleep(0.1)
            return parse(text, filename)

        monkeypatch.setattr(headers, "parse_class_headers", interrupt_in_own)
        forks = shares(3)
        with pytest.raises(KeyboardInterrupt):
            parse_corpus(self.corpus())
        assert len(forks) == 2
        self.assert_no_child()

    def test_forked_extract_runs_clean_in_dev_mode(self, tmp_path):
        """Under `-X dev -W error`, extraction on two shares writes the
        golden edges and nothing to stderr: no ResourceWarning from a
        pipe left open."""
        src = Path(__file__).resolve().parents[1] / "src"
        script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                  "import depnet.ingest; depnet.ingest.MIN_SHARE_CHARS = 1; "
                  "os_fork = os.fork; forks = []; "
                  "os.fork = lambda: forks.append(1) or os_fork(); "
                  "from depnet.cli import main; "
                  "assert main(sys.argv[1:]) == 0 and forks == [1]")
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", script,
             "extract", str(CORPUS_DIR), "--out", "edges.tsv"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src)})
        assert (result.returncode, result.stderr) == (0, "")
        assert (tmp_path / "edges.tsv").read_text() == GOLDEN_EDGES.read_text()
