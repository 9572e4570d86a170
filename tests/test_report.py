import pytest

from depnet import GraphError, detect
from depnet.cli import main
from depnet.report import build_report

from conftest import CORPUS_DIR, generate_tree, use_cpus


def test_run_settings_come_from_config(two_triangles):
    """build_report takes its settings only from the config it records."""
    config = {"runs": 3, "eb_runs": 1, "seed": 7, "xmin": 1,
              "package_depth": None}
    doc = build_report(two_triangles, config, b"")
    assert doc["config"] is config
    for algo in ("mo", "lp"):
        assert doc["algorithms"][algo]["runs"] == 3
        assert len(doc["algorithms"][algo]["q_values"]) == 3
    assert len(doc["algorithms"]["eb"]["q_values"]) == 1


@pytest.mark.parametrize("key", ["runs", "eb_runs"])
def test_zero_runs_rejected_before_any_detector(two_triangles, monkeypatch, key):
    """--runs 0 used to run the whole of EB before run_batch refused it."""
    def never(*args, **kwargs):
        raise AssertionError("a detector ran")

    for name in ("detect_eb", "detect_mo", "detect_lp"):
        monkeypatch.setattr(detect, name, never)
    config = {"runs": 3, "eb_runs": 1, "seed": 7, "xmin": 1,
              "package_depth": None, key: 0}
    with pytest.raises(GraphError, match="runs must be >= 1"):
        build_report(two_triangles, config, b"")


@pytest.mark.parametrize("tree", ["corpus", "generated"])
def test_report_bytes_independent_of_workers(tmp_path, monkeypatch, tree):
    """EB's run and the 100 MO and 100 LP runs share this process and one
    forked child on 2 CPUs, and run in this process alone on 1; the bytes
    are equal. Each tree is one parse share, which forks nothing."""
    source = CORPUS_DIR if tree == "corpus" \
        else generate_tree(tmp_path, 2, 100) / "src"
    reports = []
    for count in (1, 2):
        forks = use_cpus(monkeypatch, count)
        out = tmp_path / f"report-{count}.json"
        assert main(["report", str(source), "--out", str(out)]) == 0
        assert len(forks) == count - 1
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
