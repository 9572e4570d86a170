import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from depnet.cli import cli, main

from conftest import CORPUS_DIR, GOLDEN_EDGES

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
def runner():
    return CliRunner()


@pytest.fixture
def network(tmp_path):
    path = tmp_path / "net.tsv"
    path.write_text(NETWORK_TEXT)
    return str(path)


class TestExtract:
    def test_golden_corpus_byte_for_byte(self, runner, tmp_path):
        out = tmp_path / "edges.tsv"
        result = runner.invoke(cli, ["extract", str(CORPUS_DIR), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text() == GOLDEN_EDGES.read_text()
        assert "nodes=22 edges=43 packages=6" in result.output

    def test_empty_dir_errors(self, tmp_path, capsys):
        out = tmp_path / "edges.tsv"
        (tmp_path / "empty").mkdir()
        code = main(["extract", str(tmp_path / "empty"), "--out", str(out)])
        assert code == 2
        assert "no input classes" in capsys.readouterr().err

    def test_dependency_free_corpus_warns(self, runner, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.chd").write_text("package p; class A { int x; }")
        (src / "B.chd").write_text("package p; class B { long y; }")
        out = tmp_path / "edges.tsv"
        result = runner.invoke(cli, ["extract", str(src), "--out", str(out)])
        assert result.exit_code == 0
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
    def test_type_variables_and_primitives(self, runner, tmp_path, files,
                                           args, expected):
        """Type variables are scoped as in Java and primitive type
        arguments are no classes, so neither becomes a node."""
        src = tmp_path / "src"
        src.mkdir()
        for name, text in files.items():
            (src / name).write_text(text)
        out = tmp_path / "edges.tsv"
        result = runner.invoke(cli, ["extract", str(src), "--out", str(out),
                                     *args])
        assert result.exit_code == 0, result.output
        assert out.read_text() == "#depnet-edges v1 isolated=drop\n" + expected


class TestDetect:
    def test_mo_on_fixture(self, runner, network, tmp_path):
        out = tmp_path / "part.tsv"
        result = runner.invoke(
            cli, ["detect", network, "--algo", "mo", "--runs", "3",
                  "--out", str(out)])
        assert result.exit_code == 0, result.output
        stats = json.loads(result.output)
        assert stats["mean_q"] == pytest.approx(5 / 14)
        labels = dict(line.split("\t") for line in
                      out.read_text().splitlines())
        assert len(set(labels.values())) == 2

    def test_lp_deterministic_output(self, runner, network, tmp_path):
        outputs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            result = runner.invoke(
                cli, ["detect", network, "--algo", "lp", "--runs", "1",
                      "--seed", "7", "--out", str(out)])
            assert result.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestMetrics:
    def test_self_nmi_is_one(self, runner, network, tmp_path):
        result = runner.invoke(cli, ["metrics", network])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["q"]["P"] == pytest.approx(5 / 14)
        assert doc["nmi"]["P|P+"] == pytest.approx(1.0)

    def test_disconnected_package_reported(self, runner, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text(
            "#depnet-edges v1 isolated=drop\n"
            "pa.A\tpa.B\tfield\n"
            "pa.C\tpa.D\tfield\n")
        result = runner.invoke(cli, ["metrics", str(path)])
        doc = json.loads(result.output)
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
        assert "'part.tsv' is already taken" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["P", "P+"])
    def test_package_partition_name_rejected(self, network, tmp_path, capsys,
                                             name):
        path = tmp_path / name
        path.write_text(PARTITION_TEXT)
        assert main(["metrics", network, str(path)]) == 2
        assert f"{name!r} is already taken" in capsys.readouterr().err

    def test_distinct_names_all_reported(self, runner, network, tmp_path):
        paths = [tmp_path / "one.tsv", tmp_path / "two.tsv"]
        for path in paths:
            path.write_text(PARTITION_TEXT)
        result = runner.invoke(cli, ["metrics", network, *map(str, paths)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert sorted(doc["q"]) == ["P", "P+", "one.tsv", "two.tsv"]
        assert doc["nmi"]["one.tsv|two.tsv"] == pytest.approx(1.0)


class TestRefine:
    def test_fixture_refinement(self, runner, network, tmp_path):
        out = tmp_path / "refined.tsv"
        result = runner.invoke(
            cli, ["refine", network, "--seed", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["q_refined"] == pytest.approx(5 / 14)
        assert set(doc["labels"]) <= {"pa", "pb"}


class TestAbstract:
    def make_partition(self, runner, network, tmp_path):
        out = tmp_path / "part.tsv"
        runner.invoke(cli, ["detect", network, "--algo", "mo", "--runs", "1",
                            "--out", str(out)])
        return str(out)

    def test_dot_output(self, runner, network, tmp_path):
        part = self.make_partition(runner, network, tmp_path)
        result = runner.invoke(
            cli, ["abstract", network, part, "--format", "dot"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("graph communities {")

    def test_components_limit(self, runner, network, tmp_path):
        part = self.make_partition(runner, network, tmp_path)
        result = runner.invoke(
            cli, ["abstract", network, part, "--format", "json",
                  "--components", "1"])
        doc = json.loads(result.output)
        assert len(doc["communities"]) >= 1

    def test_json_round_trips(self, runner, network, tmp_path):
        part = self.make_partition(runner, network, tmp_path)
        result = runner.invoke(
            cli, ["abstract", network, part, "--format", "json"])
        doc = json.loads(result.output)
        assert sum(c["size"] for c in doc["communities"]) == 6


class TestReport:
    def test_report_runs_and_validates(self, runner, network):
        jsonschema = pytest.importorskip("jsonschema")
        from depnet.report import REPORT_SCHEMA

        result = runner.invoke(
            cli, ["report", network, "--runs", "5", "--eb-runs", "2"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["network"]["nodes"] == 6
        assert set(doc["algorithms"]) == {"eb", "mo", "lp"}

    def test_byte_identical_on_repeat(self, runner, tmp_path):
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            result = runner.invoke(
                cli, ["report", str(CORPUS_DIR), "--runs", "5",
                      "--eb-runs", "2", "--seed", "42", "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["detect"]) == 1

    def test_data_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no header\n")
        assert main(["detect", str(bad), "--algo", "lp"]) == 2

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

    def test_success_is_zero(self, network):
        assert main(["metrics", network]) == 0

    def test_env_seed_override(self, runner, network, monkeypatch, tmp_path):
        monkeypatch.setenv("DEPNET_SEED", "123")
        out_env = tmp_path / "env.tsv"
        runner.invoke(cli, ["detect", network, "--algo", "lp", "--runs", "1",
                            "--out", str(out_env)])
        out_flag = tmp_path / "flag.tsv"
        runner.invoke(cli, ["detect", network, "--algo", "lp", "--runs", "1",
                            "--seed", "123", "--out", str(out_flag)])
        assert out_env.read_bytes() == out_flag.read_bytes()


def test_cli_import_skips_xml_and_network_modules():
    """Start-up stays lean: xml.sax.saxutils (GraphML export only) pulls in
    urllib.request, http.client and ssl; hashlib (report digest only) loads
    OpenSSL."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, depnet.cli; "
            "print([m for m in ('xml.sax.saxutils', 'http.client', 'hashlib') "
            "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env={"PYTHONPATH": str(src)})
    assert result.stdout.strip() == "[]"
