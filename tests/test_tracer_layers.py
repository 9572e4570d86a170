"""The benchmark tracer (`perfbench/tracer.py`) wraps depnet functions by
module and name; a refactor that moves or renames one would silently drop
its layer from traced runs."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import CORPUS_DIR

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_layers() -> dict[str, tuple[str, ...]]:
    return tracer_module().LAYERS


def test_every_traced_name_is_callable_in_its_layer():
    missing = [
        f"depnet.{layer}.{name}"
        for layer, names in traced_layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"depnet.{layer}"),
                                name, None))
    ]
    assert missing == []


def test_traced_extract_and_report_record_every_count(tmp_path):
    """A traced run must succeed and fill every counter: the counters read
    attributes of depnet's results (`.n_edges`, `.m`, `levels`,
    `best_index`, `include_constructors`) that no other test pins. The
    tracer patches modules, so each run is its own process; the commands
    on the extracted edges must still reach the patched functions."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spans = []
    for run_id, args in [
        ("extract", ["extract", str(CORPUS_DIR), "--out",
                     str(tmp_path / "edges.tsv")]),
        ("report", ["report", str(CORPUS_DIR), "--runs", "1",
                    "--out", str(tmp_path / "report.json")]),
        ("refine", ["refine", "edges.tsv", "--out", "refined.tsv"]),
        ("detect", ["detect", "edges.tsv", "--algo", "lp", "--runs", "1",
                    "--out", "part.tsv"]),
        ("abstract", ["abstract", "edges.tsv", "part.tsv"]),
    ]:
        spans_path = tmp_path / f"{run_id}.json"
        result = subprocess.run(
            [sys.executable, str(TRACER), str(spans_path), run_id, *args],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        spans.extend(json.loads(spans_path.read_text()))
    assert [span for span in spans if "error" in span[5]] == []
    # The commands import these inside their bodies, after the tracer has
    # patched the modules that define them.
    assert {"detect.refine_packages", "detect.detect_lp",
            "abstract.export"} <= {span[0] for span in spans}
    recorded = {span[0] for span in spans if span[5]}
    assert set(tracer_module().COUNTS) - recorded == set()
