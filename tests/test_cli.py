import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from depnet import EXPORT_FORMATS
from depnet.cli import main

from conftest import CORPUS_DIR, GOLDEN_EDGES, ring_lattice_pairs

NETWORK_TEXT = (
    "#depnet-edges v1 isolated=drop\n"
    "pa.A\tpa.B\tfield\n"
    "pa.A\tpa.C\tfield\n"
    "pa.B\tpa.C\tfield\n"
    "pa.C\tpb.D\tfield\n"
    "pb.D\tpb.E\tfield\n"
    "pb.D\tpb.F\tfield\n"
    "pb.E\tpb.F\tfield\n"
)

PARTITION_TEXT = "".join(f"{fqn}\t{fqn[:2]}\n" for fqn in (
    "pa.A", "pa.B", "pa.C", "pb.D", "pb.E", "pb.F"))


@pytest.fixture
def network(tmp_path):
    path = tmp_path / "net.tsv"
    path.write_text(NETWORK_TEXT)
    return str(path)


class TestExtract:
    def test_golden_corpus_byte_for_byte(self, run_cli, tmp_path):
        out = tmp_path / "edges.tsv"
        code, stdout, stderr = run_cli(["extract", str(CORPUS_DIR), "--out", str(out)])
        assert code == 0, stderr
        assert out.read_text() == GOLDEN_EDGES.read_text()
        assert "nodes=22 edges=43 packages=6" in stdout

    def test_empty_dir_errors(self, tmp_path, capsys):
        out = tmp_path / "edges.tsv"
        (tmp_path / "empty").mkdir()
        code = main(["extract", str(tmp_path / "empty"), "--out", str(out)])
        assert code == 2
        assert "no input classes" in capsys.readouterr().err

    def test_class_declared_in_two_files_is_two(self, run_cli, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.chd").write_text("package p; class A {}")
        (src / "B.chd").write_text("package p; class A { int x; }")
        out = tmp_path / "edges.tsv"
        assert run_cli(["extract", str(src), "--out", str(out)]) == (
            2, "", "error: duplicate class 'p.A'\n")
        assert not out.exists()

    def test_byte_order_marks_change_nothing(self, run_cli, tmp_path):
        """Sources saved with a byte-order mark extract as they do without."""
        src = tmp_path / "src"
        src.mkdir()
        for path in CORPUS_DIR.glob("*.chd"):
            (src / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / "edges.tsv"
        code, _, stderr = run_cli(["extract", str(src), "--out", str(out)])
        assert code == 0, stderr
        assert out.read_text() == GOLDEN_EDGES.read_text()

    def test_dependency_free_corpus_warns(self, run_cli, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.chd").write_text("package p; class A { int x; }")
        (src / "B.chd").write_text("package p; class B { long y; }")
        out = tmp_path / "edges.tsv"
        code, stdout, stderr = run_cli(["extract", str(src), "--out", str(out)])
        assert code == 0
        assert out.read_text() == "#depnet-edges v1 isolated=drop\n"


    @pytest.mark.parametrize("files, args, expected", [
        ({"A.chd": "package p; class A { <B> void f(B b); B field; }",
          "B.chd": "package p; class B {}"},
         [], "p.A\tp.B\tfield\n"),
        ({"A.chd": "package p; class A<T> { class In { T t; E e; } }",
          "E.chd": "package p; class E {}"},
         ["--keep-external"], "p.A.In\tp.E\tfield\n"),
        ({"A.chd": "package p; class A { List<int[]> x; "
                   "Map<E, double[]> y; } class E {}"},
         ["--keep-external", "--type-args"],
         "List\tp.A\tfield\nMap\tp.A\tfield\np.A\tp.E\tfield\n"),
    ], ids=["method-type-variable", "enclosing-type-variable",
            "primitive-type-arguments"])
    def test_type_variables_and_primitives(self, run_cli, tmp_path, files,
                                           args, expected):
        """Type variables are scoped as in Java and primitive type
        arguments are no classes, so neither becomes a node."""
        src = tmp_path / "src"
        src.mkdir()
        for name, text in files.items():
            (src / name).write_text(text)
        out = tmp_path / "edges.tsv"
        code, stdout, stderr = run_cli(["extract", str(src), "--out",
                                        str(out), *args])
        assert code == 0, stderr
        assert out.read_text() == "#depnet-edges v1 isolated=drop\n" + expected


class TestDetect:
    def test_mo_on_fixture(self, run_cli, network, tmp_path):
        out = tmp_path / "part.tsv"
        code, stdout, stderr = run_cli(
            ["detect", network, "--algo", "mo", "--runs", "3",
             "--out", str(out)])
        assert code == 0, stderr
        stats = json.loads(stdout)
        assert stats["mean_q"] == pytest.approx(5 / 14)
        labels = dict(line.split("\t") for line in
                      out.read_text().splitlines())
        assert len(set(labels.values())) == 2

    def test_lp_deterministic_output(self, run_cli, network, tmp_path):
        outputs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            code, stdout, stderr = run_cli(
                ["detect", network, "--algo", "lp", "--runs", "1",
                 "--seed", "7", "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestMetrics:
    def test_self_nmi_is_one(self, run_cli, network, tmp_path):
        code, stdout, stderr = run_cli(["metrics", network])
        assert code == 0, stderr
        doc = json.loads(stdout)
        assert doc["q"]["P"] == pytest.approx(5 / 14)
        assert doc["nmi"]["P|P+"] == pytest.approx(1.0)

    def test_disconnected_package_reported(self, run_cli, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text(
            "#depnet-edges v1 isolated=drop\n"
            "pa.A\tpa.B\tfield\n"
            "pa.C\tpa.D\tfield\n")
        code, stdout, stderr = run_cli(["metrics", str(path)])
        doc = json.loads(stdout)
        assert doc["disconnected_packages"] == ["pa"]

    def test_node_mismatch_rejected(self, network, tmp_path, capsys):
        part = tmp_path / "bad.tsv"
        part.write_text("pa.A\tx\n")
        assert main(["metrics", network, str(part)]) == 2

    def test_basename_collision_rejected(self, network, tmp_path, capsys):
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "part.tsv")
            paths[-1].write_text(PARTITION_TEXT)
        assert main(["metrics", network, *map(str, paths)]) == 2
        err = capsys.readouterr().err
        assert f"'part.tsv' is already taken by {paths[0]}\n" in err
        assert "package partitions" not in err

    @pytest.mark.parametrize("name", ["P", "P+"])
    def test_package_partition_name_rejected(self, network, tmp_path, capsys,
                                             name):
        path = tmp_path / name
        path.write_text(PARTITION_TEXT)
        assert main(["metrics", network, str(path)]) == 2
        assert (f"{name!r} is already taken ('P' and 'P+' are the package "
                "partitions)") in capsys.readouterr().err

    def test_distinct_names_all_reported(self, run_cli, network, tmp_path):
        paths = [tmp_path / "one.tsv", tmp_path / "two.tsv"]
        for path in paths:
            path.write_text(PARTITION_TEXT)
        code, stdout, stderr = run_cli(["metrics", network, *map(str, paths)])
        assert code == 0, stderr
        doc = json.loads(stdout)
        assert sorted(doc["q"]) == ["P", "P+", "one.tsv", "two.tsv"]
        assert doc["nmi"]["one.tsv|two.tsv"] == pytest.approx(1.0)


class TestRefine:
    def test_fixture_refinement(self, run_cli, network, tmp_path):
        out = tmp_path / "refined.tsv"
        code, stdout, stderr = run_cli(
            ["refine", network, "--seed", "1", "--out", str(out)])
        assert code == 0, stderr
        doc = json.loads(stdout)
        assert doc["q_refined"] == pytest.approx(5 / 14)
        assert set(doc["labels"]) <= {"pa", "pb"}


class TestAbstract:
    def make_partition(self, run_cli, network, tmp_path):
        out = tmp_path / "part.tsv"
        run_cli(["detect", network, "--algo", "mo", "--runs", "1",
                 "--out", str(out)])
        return str(out)

    def test_dot_output(self, run_cli, network, tmp_path):
        part = self.make_partition(run_cli, network, tmp_path)
        code, stdout, stderr = run_cli(
            ["abstract", network, part, "--format", "dot"])
        assert code == 0, stderr
        assert stdout.startswith("graph communities {")

    def test_components_limit(self, run_cli, network, tmp_path):
        part = self.make_partition(run_cli, network, tmp_path)
        code, stdout, stderr = run_cli(
            ["abstract", network, part, "--format", "json",
             "--components", "1"])
        doc = json.loads(stdout)
        assert len(doc["communities"]) >= 1

    def test_json_round_trips(self, run_cli, network, tmp_path):
        part = self.make_partition(run_cli, network, tmp_path)
        code, stdout, stderr = run_cli(
            ["abstract", network, part, "--format", "json"])
        doc = json.loads(stdout)
        assert sum(c["size"] for c in doc["communities"]) == 6

    def test_stdout_equals_out_file(self, run_cli, tmp_path):
        """Names are written as they are, escape sequences included: click
        used to strip ANSI codes from a stdout that was no terminal."""
        network = tmp_path / "net.tsv"
        network.write_text(NETWORK_TEXT.replace("pa.", "p\x1b[31m."))
        part = tmp_path / "part.tsv"
        part.write_text(PARTITION_TEXT.replace("pa.", "p\x1b[31m."))
        args = ["abstract", str(network), str(part), "--format", "dot"]
        code, stdout, _ = run_cli(args)
        assert code == 0
        assert run_cli(args + ["--out", str(tmp_path / "out.dot")])[0] == 0
        assert stdout == (tmp_path / "out.dot").read_text()
        assert "\x1b[31m" in stdout


class TestReport:
    def test_report_runs_and_validates(self, run_cli, network):
        jsonschema = pytest.importorskip("jsonschema")
        from depnet.report import REPORT_SCHEMA

        code, stdout, stderr = run_cli(
            ["report", network, "--runs", "5", "--eb-runs", "2"])
        assert code == 0, stderr
        doc = json.loads(stdout)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["network"]["nodes"] == 6
        assert set(doc["algorithms"]) == {"eb", "mo", "lp"}

    def test_byte_identical_on_repeat(self, run_cli, tmp_path):
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code, stdout, stderr = run_cli(
                ["report", str(CORPUS_DIR), "--runs", "5",
                 "--eb-runs", "2", "--seed", "42", "--out", str(out)])
            assert code == 0, stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed, extra", [
        (42, []), *((seed, ["--type-args"]) for seed in range(1, 6))])
    def test_directory_and_its_edge_file_agree(self, run_cli, tmp_path, seed,
                                               extra):
        """With --keep-external, a report on a source directory and one on
        the edge file extracted from it analyse the same graph, its nodes in
        the same order; externals used to be numbered after every class
        from sources only, and the LP values of the two reports differed."""
        edges = tmp_path / "edges.tsv"
        flags = ["--keep-external", *extra]
        code, _, stderr = run_cli(["extract", str(CORPUS_DIR), *flags,
                                   "--out", str(edges)])
        assert code == 0, stderr
        docs = []
        for source in (CORPUS_DIR, edges):
            code, stdout, stderr = run_cli(["report", str(source), "--runs",
                                            "20", "--seed", str(seed), *flags])
            assert code == 0, stderr
            docs.append(json.loads(stdout))
        for key in ("algorithms", "packages", "network",
                    "size_distributions"):
            assert docs[0][key] == docs[1][key], key

    @pytest.mark.parametrize("source", ["edges", "directory"])
    def test_config_records_every_option_but_out(self, run_cli, network,
                                                 source):
        """The `report` subparser is the one list of a report's settings:
        the report's config holds each option it parses but `--out`."""
        from depnet.cli import _parser

        commands = next(action for action in _parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        dests = {action.dest for action in commands.choices["report"]._actions
                 if action.default is not argparse.SUPPRESS}
        path = network if source == "edges" else str(CORPUS_DIR)
        code, stdout, stderr = run_cli(["report", path, "--runs", "1"])
        assert code == 0, stderr
        config = json.loads(stdout)["config"]
        assert set(config) == dests - {"out"}
        assert (config["source"], config["runs"]) == (path, 1)

    def test_tree_with_no_dependencies_names_the_cause(
            self, run_cli, tmp_path, monkeypatch):
        """Classes that reference nothing leave a graph with no edges, and
        the report says so before any detector runs."""
        from depnet import report

        monkeypatch.setattr(report, "run_batch",
                            lambda *args: pytest.fail("a detector ran"))
        (tmp_path / "A.chd").write_text("package p; class A { int n; }")
        (tmp_path / "B.chd").write_text("package p; class B {}")
        code, stdout, stderr = run_cli(["report", str(tmp_path)])
        assert (code, stdout) == (2, "")
        assert stderr == ("error: modularity undefined for a graph with no "
                          "edges\n")

    def test_edge_file_is_read_once(self, run_cli, network, monkeypatch):
        """A report on an edge file reads it once, through `read_text`."""
        from depnet import ingest

        bytes_reads, text_reads = [], []
        read_bytes, read_text = Path.read_bytes, ingest.read_text

        def spy_read_bytes(path):
            bytes_reads.append(str(path))
            return read_bytes(path)

        def spy_read_text(path):
            text_reads.append(str(path))
            return read_text(path)

        monkeypatch.setattr(Path, "read_bytes", spy_read_bytes)
        monkeypatch.setattr(ingest, "read_text", spy_read_text)
        code, _, stderr = run_cli(["report", network, "--runs", "1"])
        assert code == 0, stderr
        assert bytes_reads == text_reads == [network]

    @pytest.mark.parametrize("raw", [
        NETWORK_TEXT.replace("\n", "\r\n").encode(),
        b"\xef\xbb\xbf" + NETWORK_TEXT.encode(),
    ], ids=["crlf", "bom"])
    def test_digest_is_of_the_text_analysed(self, run_cli, network, tmp_path,
                                            raw):
        """`input_sha256` is the SHA-256 of the text analysed: for an edge
        file with LF line ends that of its bytes, and a copy with CRLF line
        ends or a byte-order mark has the same digest and the same graph."""
        copy = tmp_path / "copy.tsv"
        copy.write_bytes(raw)
        docs = []
        for source in (network, copy):
            code, stdout, stderr = run_cli(["report", str(source), "--runs",
                                            "5"])
            assert code == 0, stderr
            docs.append(json.loads(stdout))
        assert docs[0]["input_sha256"] == hashlib.sha256(
            Path(network).read_bytes()).hexdigest()
        for key in ("input_sha256", "network", "algorithms"):
            assert docs[0][key] == docs[1][key], key


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["detect"]) == 1

    @pytest.mark.parametrize("args, seed", [
        ([], None),
        (["bogus"], None),
        (["detect", "{net}"], None),
        (["detect", "{net}", "--algo", "zz"], None),
        (["detect", "{net}", "--algo", "lp", "--runs", "abc"], None),
        (["detect", "{net}", "--alg", "lp"], None),
        (["extract", "--out", "{out}"], None),
        (["detect", "{net}", "--algo", "lp", "--runs", "1"], "abc"),
        (["extract", str(CORPUS_DIR), "--out", ""], None),
        (["detect", "{net}", "--algo", "lp", "--runs", "1", "--out", ""],
         None),
        (["metrics", "{net}", "--out", ""], None),
        (["refine", "{net}", "--out", ""], None),
        (["abstract", "{net}", "{part}", "--out", ""], None),
        (["report", "{net}", "--runs", "1", "--out", ""], None),
    ], ids=["no-arguments", "unknown-command", "missing-algo", "bad-algo",
            "bad-runs", "abbreviated-option", "extract-no-inputs",
            "bad-env-seed", "extract-empty-out", "detect-empty-out",
            "metrics-empty-out", "refine-empty-out", "abstract-empty-out",
            "report-empty-out"])
    def test_usage_error_contract(self, run_cli, network, tmp_path,
                                  monkeypatch, args, seed):
        """Every usage error exits 1 with an `error:` message on stderr and
        nothing on stdout; the wording is not part of the contract. An empty
        `--out` is one, in every command."""
        if seed is not None:
            monkeypatch.setenv("DEPNET_SEED", seed)
        out = tmp_path / "out.tsv"
        part = tmp_path / "part.tsv"
        part.write_text(PARTITION_TEXT)
        code, stdout, stderr = run_cli(
            [a.format(net=network, out=out, part=part) for a in args])
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error:") and "usage:" in stderr
        assert "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--help"], ["report", "--help"]])
    def test_help_is_zero(self, run_cli, args):
        code, stdout, stderr = run_cli(args)
        assert (code, stderr) == (0, "")
        assert stdout.lower().startswith("usage:")

    def test_graphml_label_xml_cannot_hold_is_two(self, run_cli, network,
                                                  tmp_path):
        """A partition label with U+000B used to give exit 0 and GraphML
        that no XML parser reads."""
        part = tmp_path / "part.tsv"
        part.write_text(PARTITION_TEXT.replace("\tpa", "\tp\x0ba"))
        out = tmp_path / "out.graphml"
        code, stdout, stderr = run_cli(["abstract", network, str(part),
                                        "--format", "graphml", "--out",
                                        str(out)])
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: label 'p\\x0ba' holds a character")
        assert not out.exists()

    def test_data_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no header\n")
        assert main(["detect", str(bad), "--algo", "lp"]) == 2

    def test_past_the_eb_cap(self, run_cli, tmp_path):
        """One edge past the 5,000-edge cap: `detect --algo eb` fails with
        the cap's message, and a report records EB as skipped."""
        path = tmp_path / "net.tsv"
        path.write_text("#depnet-edges v1 isolated=drop\n" + "".join(
            f"n{u}\tn{v}\tfield\n" for u, v in ring_lattice_pairs(5001)))
        message = ("collapsed graph has 5001 edges (cap 5000); "
                   "use the MO or LP algorithm instead")
        assert run_cli(["detect", str(path), "--algo", "eb"]) == (
            2, "", f"error: {message}\n")
        code, out, err = run_cli(["report", str(path), "--runs", "1"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["algorithms"]["eb"] == {"skipped": message}
        assert report["network"]["edges"] == 5001

    @pytest.mark.parametrize("text", ['class A { String s = "abc\\',
                                      "class A { char c = '\\",
                                      '@A(x = ") class A { B b; }'])
    def test_truncated_literal_is_two(self, tmp_path, capsys, text):
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.chd").write_text(text)
        out = tmp_path / "edges.tsv"
        assert main(["extract", str(src), "--out", str(out)]) == 2
        assert "unterminated literal" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("package p; class A { int<B> y; }",
         "A.chd:1:25: type arguments on primitive 'int'"),
        ("package p; class A<T> { T<String> x; }",
         "A.chd:1:26: type arguments on type variable 'T'"),
        ("package p; class A<T> { class B extends T {} }",
         "A.chd:1:41: type variable 'T' used as a supertype"),
        ("package p; class A<T> { T.Inner f; }",
         "A.chd:1:25: member type selected from type variable 'T'"),
        ("package p; class A<T> extends T.Inner {}",
         "A.chd:1:31: member type selected from type variable 'T'"),
        ("package p; class A { <T> T.Inner f(T.X x); }",
         "A.chd:1:26: member type selected from type variable 'T'"),
    ])
    def test_java_type_rule_is_two(self, tmp_path, capsys, text, message):
        """These used to parse; their references were silently dropped, or
        with --keep-external `T.Inner` was written as an external class."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.chd").write_text(text)
        out = tmp_path / "edges.tsv"
        assert main(["extract", str(src), "--keep-external",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err.rstrip().endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["metrics", "{net}", "--xmin", "0"],
        ["metrics", "{net}", "--xmin", "-1"],
        ["report", "{net}", "--runs", "1", "--xmin", "0"],
        ["metrics", "{net}", "--package-depth", "0"],
        ["report", "{net}", "--runs", "1", "--package-depth", "-1"],
        ["detect", "{net}", "--algo", "mo", "--runs", "1",
         "--package-depth", "0"],
        ["refine", "{net}", "--package-depth", "0"],
        ["extract", "{corpus}", "--out", "{out}", "--package-depth", "0"],
    ])
    def test_out_of_range_numeric_option_is_two(self, network, tmp_path,
                                                 capsys, args):
        """xmin < 1 used to end in a ZeroDivisionError traceback; a package
        depth < 1 was silently accepted."""
        out = tmp_path / "out.tsv"
        argv = [a.format(net=network, corpus=CORPUS_DIR, out=out) for a in args]
        assert main(argv) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, bad", [
        (["extract", "{src}", "--out", "{out}"], "{src}/B.chd"),
        (["report", "{src}", "--runs", "1"], "{src}/B.chd"),
        (["detect", "{tsv}", "--algo", "mo", "--runs", "1"], "{tsv}"),
        (["report", "{tsv}", "--runs", "1"], "{tsv}"),
        (["metrics", "{tsv}"], "{tsv}"),
        (["refine", "{tsv}"], "{tsv}"),
        (["abstract", "{tsv}", "{part}"], "{tsv}"),
        (["metrics", "{net}", "{bad_part}"], "{bad_part}"),
        (["abstract", "{net}", "{bad_part}"], "{bad_part}"),
    ], ids=["extract", "report-dir", "detect", "report-tsv", "metrics",
            "refine", "abstract", "metrics-partition", "abstract-partition"])
    def test_input_not_utf8_is_two(self, network, tmp_path, capsys, args, bad):
        """Each file a command reads: a .chd source, an edge TSV or a
        partition TSV. Each used to end in a UnicodeDecodeError traceback."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.chd").write_text("package p; class A { B b; }")
        (src / "B.chd").write_bytes(b"package p; class B { A a; } // \xff")
        names = {"src": src, "out": tmp_path / "out.tsv", "net": network,
                 "tsv": tmp_path / "bad.tsv", "part": tmp_path / "part.tsv",
                 "bad_part": tmp_path / "bad_part.tsv"}
        names["tsv"].write_bytes(NETWORK_TEXT.encode() + b"pa.\xe9\tpb.D\tfield\n")
        names["part"].write_text(PARTITION_TEXT)
        names["bad_part"].write_bytes(PARTITION_TEXT.encode() + b"\xe9\n")
        assert main([a.format(**names) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"{bad.format(**names)}: not UTF-8" in err
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("text", [
        "class A { " + "L<" * 1000 + "B" + ">" * 1000 + " f; }",
        "class A { " + "class B { " * 500 + "}" * 501,
    ], ids=["generics-1000", "classes-500"])
    def test_deep_nesting_is_two(self, tmp_path, capsys, text):
        """Deep nesting used to end in a RecursionError traceback."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.chd").write_text(text)
        out = tmp_path / "edges.tsv"
        assert main(["extract", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "A.chd:1:" in err and "nesting too deep" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--runs", "--eb-runs"])
    def test_zero_runs_fails_before_any_detector(self, network, capsys,
                                                 monkeypatch, flag):
        from depnet import detect

        def never(*args, **kwargs):
            raise AssertionError("a detector ran")

        for name in ("detect_eb", "detect_mo", "detect_lp"):
            monkeypatch.setattr(detect, name, never)
        assert main(["report", network, flag, "0"]) == 2
        assert capsys.readouterr().err == "error: runs must be >= 1\n"

    @pytest.mark.parametrize("epoch", [
        "abc", "253402300800", str(10 ** 30), "99999999999999999"])
    def test_bad_source_date_epoch_fails_before_any_detector(
            self, network, capsys, monkeypatch, epoch):
        """Not an integer, past year 9999, past a C long and past the
        platform's time_t: each is one error line naming the variable."""
        from depnet import detect

        def never(*args, **kwargs):
            raise AssertionError("a detector ran")

        for name in ("detect_eb", "detect_mo", "detect_lp"):
            monkeypatch.setattr(detect, name, never)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(["report", network, "--runs", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: SOURCE_DATE_EPOCH ")
        assert repr(epoch) in err

    @pytest.mark.parametrize("epoch, stamp", [
        (" 5", "1970-01-01T00:00:05+00:00"),
        ("-1", "1969-12-31T23:59:59+00:00")])
    def test_source_date_epoch_is_read_by_int(self, run_cli, network,
                                              monkeypatch, epoch, stamp):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, out, _ = run_cli(["report", network, "--runs", "1"])
        assert code == 0
        assert json.loads(out)["timestamp"] == stamp

    def test_success_is_zero(self, network):
        assert main(["metrics", network]) == 0

    def test_env_seed_override(self, run_cli, network, monkeypatch, tmp_path):
        monkeypatch.setenv("DEPNET_SEED", "123")
        out_env = tmp_path / "env.tsv"
        run_cli(["detect", network, "--algo", "lp", "--runs", "1",
                 "--out", str(out_env)])
        out_flag = tmp_path / "flag.tsv"
        run_cli(["detect", network, "--algo", "lp", "--runs", "1",
                 "--seed", "123", "--out", str(out_flag)])
        assert out_env.read_bytes() == out_flag.read_bytes()


# Malformed-input alphabet: names with odd characters, dots and '#' (a
# self-loop when both ends are drawn equal), kinds mostly known, headers
# mostly valid, and soup lines of separators that are not tabs.
_NAMES = ["p.A", "p.B", "q.C", "D", "p..E", ".F", "p.A.", "#G", "p.A\r",
          "q.\x00", "p.\x85H", "p.\x0cI", ""]
_KINDS = ["field", "inheritance", "parameter", "return"] * 6 + ["Field", ""]
_LABELS = ["0", "1", "p", "", "#", "\x85"]
_HEADERS = ["#depnet-edges v1 isolated=drop",
            "#depnet-edges v1 isolated=keep"] * 8 + [
    "#depnet-edges v1 isolated=", "#depnet-edges v2 isolated=drop",
    "#depnet-edges v1 isolated=drop\x85", "depnet-edges", ""]
_SOUP = st.lists(st.sampled_from(["\t", ".", "#", "\r", "\x00", "\x85",
                                  "\x0c", " ", "p.A", "field"]),
                 max_size=6).map("".join)


@st.composite
def _input_files(draw):
    """An edge file and a partition file of the classes it names, each
    with at most one soup line, and the partition with at most one
    duplicate or unknown class."""
    name = st.sampled_from(_NAMES)
    edges = draw(st.lists(st.tuples(name, name, st.sampled_from(_KINDS)),
                          max_size=8))
    lines = [draw(st.sampled_from(_HEADERS)), *map("\t".join, edges),
             *draw(st.lists(_SOUP, max_size=1))]
    classes = sorted({fqn for src, dst, _ in edges for fqn in (src, dst)})
    rows = [f"{fqn}\t{draw(st.sampled_from(_LABELS))}" for fqn in classes]
    rows += draw(st.lists(st.one_of(
        _SOUP, st.tuples(name, st.sampled_from(_LABELS)).map("\t".join)),
        max_size=1))
    rows = draw(st.permutations(rows))
    return ("".join(line + "\n" for line in lines),
            "".join(row + "\n" for row in rows))


@settings(max_examples=100, deadline=None)
@given(files=_input_files())
def test_malformed_input_exits_zero_or_two(tmp_path_factory, files):
    """Any edge file and partition file through every command that reads
    them: exit 2 is one `error:` line and no traceback, and exit 0 leaves
    output that parses."""
    work = tmp_path_factory.mktemp("fuzz")
    net, part = work / "net.tsv", work / "part.tsv"
    for path, text in zip((net, part), files):
        path.write_text(text, encoding="utf-8", newline="")
    net, part = str(net), str(part)
    runs = [(["report", net, "--runs", "2"], json.loads),
            (["metrics", net, part], json.loads),
            (["refine", net], json.loads)]
    runs += [(["detect", net, "--algo", algo, "--runs", "2"], json.loads)
             for algo in ("eb", "mo", "lp")]
    def dot(text):
        assert text.startswith("graph communities {") and text.endswith("}\n")

    parsers = {"dot": dot, "graphml": ElementTree.fromstring,
               "json": json.loads}
    runs += [(["abstract", net, part, "--format", fmt], parsers[fmt])
             for fmt in EXPORT_FORMATS]
    for args, parse in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), (args, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            parse(out)


def test_cli_import_skips_xml_and_network_modules(tmp_path):
    """Start-up stays lean: it loads no third-party module and no json;
    hashlib (report digest only) loads OpenSSL; pickle is loaded only when
    parse shares or seeded runs fork, and never multiprocessing or
    concurrent.futures. GraphML export escapes without
    xml.sax.saxutils, which pulls in urllib.request and http.client.
    Of depnet itself, start-up loads only the CLI, and each command only the
    layers it runs: extraction no detector, metric, report or abstraction,
    metrics no detector, and a report on an edge file no header parser or
    abstraction. No command loads dataclasses or the inspect module it
    imports."""
    src = Path(__file__).resolve().parents[1] / "src"

    def loaded(code: str) -> set[str]:
        result = subprocess.run(
            [sys.executable, "-c",
             f"import sys; {code}; print(*sorted(sys.modules), sep=chr(10))"],
            capture_output=True, text=True, check=True, cwd=tmp_path,
            env={"PYTHONPATH": str(src)})
        return set(result.stdout.split())

    startup = loaded("import depnet.cli")
    assert startup & {"xml.sax.saxutils", "http.client", "hashlib",
                      "multiprocessing", "click", "json"} == set()
    assert {m for m in startup if m.startswith("depnet")} == {
        "depnet", "depnet.cli", "depnet.errors"}

    run = "from depnet.cli import main; assert main({!r}) == 0"
    # Extraction on two shares, so that one is parsed in a forked child.
    extract = loaded(
        "import os; os.sched_getaffinity = lambda pid: {0, 1}; "
        "import depnet.ingest; depnet.ingest.MIN_SHARE_CHARS = 1; "
        + run.format(["extract", str(CORPUS_DIR), "--out", "edges.tsv"]))
    assert "depnet.headers" in extract
    assert extract & {"depnet.detect", "depnet.metrics", "depnet.report",
                      "depnet.abstract", "dataclasses", "inspect",
                      "multiprocessing", "concurrent.futures"} == set()
    metrics = loaded(run.format(["metrics", "edges.tsv", "--out",
                                 "metrics.json"]))
    assert "depnet.metrics" in metrics
    assert metrics & {"depnet.detect", "depnet.headers",
                      "depnet.abstract"} == set()
    report = loaded(run.format(
        ["report", "edges.tsv", "--runs", "1", "--out", "report.json"]))
    assert "depnet.report" in report
    assert report & {"depnet.headers", "depnet.abstract", "dataclasses",
                     "inspect", "pickle"} == set()
    # Seeded runs on two CPUs, so that they fork a child.
    for args in (["report", str(CORPUS_DIR), "--out", "corpus.json"],
                 ["detect", "edges.tsv", "--algo", "lp", "--runs", "4",
                  "--out", "lp.tsv"]):
        forked = loaded("import os; os.sched_getaffinity = lambda pid: {0, 1}; "
                        + run.format(args))
        assert "pickle" in forked
        assert forked & {"multiprocessing", "concurrent.futures"} == set()
    graphml = loaded(run.format(
        ["detect", "edges.tsv", "--algo", "lp", "--runs", "1",
         "--out", "part.tsv"]) + "; " + run.format(
        ["abstract", "edges.tsv", "part.tsv", "--format", "graphml",
         "--out", "communities.graphml"]))
    assert "depnet.abstract" in graphml
    assert graphml & {"xml.sax", "xml.sax.saxutils", "urllib.request",
                      "http.client", "dataclasses", "inspect"} == set()


def test_cli_runs_on_the_standard_library_alone(tmp_path):
    """`python -S` leaves site-packages off the path, so any third-party
    import fails: extract and report must run without one."""
    src = Path(__file__).resolve().parents[1] / "src"
    for args in (["extract", str(CORPUS_DIR), "--out", "edges.tsv"],
                 ["report", "edges.tsv", "--runs", "2", "--out", "r.json"]):
        result = subprocess.run(
            [sys.executable, "-S", "-m", "depnet.cli", *args], cwd=tmp_path,
            capture_output=True, text=True, env={"PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "edges.tsv").read_text() == GOLDEN_EDGES.read_text()
    assert json.loads((tmp_path / "r.json").read_text())["network"] == {
        "nodes": 22, "edges": 43, "packages": 6}


def test_output_independent_of_hash_seed(tmp_path):
    """Label sets are built with set(), whose order over strings follows
    PYTHONHASHSEED; every output must be sorted or counted so that it does
    not. Seeds 0 and 12345 happen to order this corpus's two refined labels
    alike, and seed 4 orders them the other way."""
    src = Path(__file__).resolve().parents[1] / "src"
    commands = [
        ["extract", str(CORPUS_DIR), "--out", "edges.tsv"],
        ["report", str(CORPUS_DIR), "--runs", "3"],
        ["refine", "edges.tsv", "--out", "refined.tsv"],
        ["metrics", "edges.tsv", "refined.tsv"],
        ["detect", "edges.tsv", "--algo", "lp", "--out", "lp.tsv"],
    ]
    seen = []
    for hash_seed in ("0", "12345", "4"):
        work = tmp_path / hash_seed
        work.mkdir()
        stdout = []
        for args in commands:
            result = subprocess.run(
                [sys.executable, "-m", "depnet.cli", *args], cwd=work,
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed})
            stdout.append(result.stdout)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        assert sorted(files) == ["edges.tsv", "lp.tsv", "refined.tsv"]
        seen.append((stdout, files))
    assert seen[0] == seen[1] == seen[2]


def test_every_command_runs_clean_in_dev_mode(tmp_path):
    """Under `-X dev -W error`, with two workers for the seeded runs, every
    command exits 0 and writes nothing to stderr: no ResourceWarning from
    a pipe or file left open, and no warning about forking."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from depnet.cli import main; sys.exit(main(sys.argv[1:]))")
    commands = [
        ["extract", str(CORPUS_DIR), "--out", "edges.tsv"],
        *(["detect", "edges.tsv", "--algo", algo, "--out", f"{algo}.tsv"]
          for algo in ("eb", "mo", "lp")),
        ["refine", "edges.tsv", "--out", "refined.tsv"],
        ["metrics", "edges.tsv", "mo.tsv", "refined.tsv"],
        *(["abstract", "edges.tsv", "lp.tsv", "--format", fmt]
          for fmt in EXPORT_FORMATS),
        ["report", str(CORPUS_DIR)],
        ["report", "edges.tsv"],
    ]
    for args in commands:
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", script, *args],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src)})
        assert (result.returncode, result.stderr) == (0, ""), args
