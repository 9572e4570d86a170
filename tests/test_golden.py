"""Golden bytes of the analysis commands on the test corpus and its golden
edge file: each command's stdout, and the file its `--out` names, must equal
the files of the same name under tests/data/golden/.

The commands run in this process, one after another, in a scratch directory
that holds copies of `corpus/` and `corpus_golden_edges.tsv`, so that the
paths a report records are relative. `SOURCE_DATE_EPOCH` and `DEPNET_SEED`
are unset. The corpus has one isolated class, so the report on the
directory runs every detector on a graph that `remove_isolated` remapped.

    PYTHONPATH=src python tests/test_golden.py

rewrites the golden files from the code as it stands. Only a change that is
meant to change depnet's output bytes should do that, and it must say so.
"""

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from depnet.cli import main

from conftest import CORPUS_DIR, DATA_DIR, GOLDEN_EDGES

GOLDEN_DIR = DATA_DIR / "golden"
EDGES = GOLDEN_EDGES.name
PARTITIONS = ("mo.tsv", "lp.tsv", "eb.tsv", "refined.tsv")

# Each command's name (its stdout is golden/NAME.out) and arguments; the
# partitions the first four write feed the later ones.
COMMANDS = (
    ("detect-mo", "detect", EDGES, "--algo", "mo", "--out", "mo.tsv"),
    ("detect-lp", "detect", EDGES, "--algo", "lp", "--out", "lp.tsv"),
    ("detect-eb", "detect", EDGES, "--algo", "eb", "--out", "eb.tsv"),
    ("refine", "refine", EDGES, "--out", "refined.tsv"),
    ("metrics", "metrics", EDGES, *PARTITIONS),
    *((f"abstract-{fmt}", "abstract", EDGES, "lp.tsv", "--format", fmt,
       "--out", f"communities.{fmt}") for fmt in ("dot", "graphml", "json")),
    *((f"abstract-{fmt}-components", "abstract", EDGES, "lp.tsv",
       "--format", fmt, "--components", "2")
      for fmt in ("dot", "graphml", "json")),
    ("report-dir", "report", CORPUS_DIR.name, "--runs", "5"),
    ("report-tsv", "report", EDGES, "--runs", "5"),
)


def run_commands(work: Path) -> dict[str, bytes]:
    """Run COMMANDS in `work`; each golden file's name -> the bytes the
    commands gave for it."""
    shutil.copytree(CORPUS_DIR, work / CORPUS_DIR.name)
    shutil.copyfile(GOLDEN_EDGES, work / EDGES)
    produced: dict[str, bytes] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        patch.delenv("SOURCE_DATE_EPOCH", raising=False)
        patch.delenv("DEPNET_SEED", raising=False)
        for name, *args in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(args)
            assert (code, stderr.getvalue()) == (0, ""), name
            produced[f"{name}.out"] = stdout.getvalue().encode("utf-8")
            if "--out" in args:
                out = args[args.index("--out") + 1]
                produced[out] = (work / out).read_bytes()
    return produced


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


def test_golden_files_are_exactly_the_outputs(produced):
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(produced)


@pytest.mark.parametrize("name", [
    f"{name}.out" for name, *_ in COMMANDS] + [
    args[args.index("--out") + 1] for _, *args in COMMANDS if "--out" in args])
def test_output_matches_golden_bytes(produced, name):
    assert produced[name] == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        outputs = run_commands(Path(scratch))
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    GOLDEN_DIR.mkdir()
    for file_name, data in outputs.items():
        (GOLDEN_DIR / file_name).write_bytes(data)
    print(f"wrote {len(outputs)} files to {os.path.relpath(GOLDEN_DIR)}")
