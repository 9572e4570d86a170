import importlib.util
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes oracles importable

from depnet import build_graph
from depnet.cli import main
from depnet.graph import component_labels

DATA_DIR = Path(__file__).parent / "data"
CORPUS_DIR = DATA_DIR / "corpus"
GOLDEN_EDGES = DATA_DIR / "corpus_golden_edges.tsv"
PERFBENCH_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_FORK = os.fork


def graph_from_pairs(pairs, n=None):
    """Build a test multigraph from (u, v) id pairs; nodes named n0..n{k}."""
    nodes = n if n is not None else max(max(p) for p in pairs) + 1
    fqns = [f"n{i}" for i in range(nodes)]
    return build_graph(fqns, [(fqns[u], fqns[v], "field") for u, v in pairs])


def ring_lattice_pairs(n_edges):
    """`n_edges` distinct (u, v) pairs, 5,000 <= n_edges <= 5,500, on 1,000
    nodes: each node joined to its five successors round the ring, then
    chords (u, u + 500) for the edges past 5,000."""
    pairs = [(u, (u + k) % 1000) for k in range(1, 6) for u in range(1000)]
    return pairs + [(u, u + 500) for u in range(n_edges - 5000)]


def components(graph):
    """Label every node with the index of its connected component, by
    `component_labels` over the graph's neighbour maps."""
    nodes = range(graph.n_nodes)
    comp = component_labels([graph.neighbors(u) for u in nodes], nodes)
    return tuple(comp[u] for u in nodes)


def generate_tree(out_dir: Path, seed: int, classes: int) -> Path:
    """Write the `perfbench/gen.py` tree of `classes` classes for a seed
    (`out_dir/src/**.chd` and `out_dir/expected_edges.tsv`); returns
    out_dir."""
    gen = sys.modules.get("perfbench_gen")
    if gen is None:
        spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                      PERFBENCH_GEN)
        gen = importlib.util.module_from_spec(spec)
        sys.modules["perfbench_gen"] = gen  # its dataclasses look it up
        spec.loader.exec_module(gen)
    gen.generate(out_dir, seed, gen.Shape(classes, per_package=10, refs=4))
    return out_dir


def use_cpus(monkeypatch, count: int) -> list:
    """Make `count` CPUs usable, as `os.sched_getaffinity` reports them, so
    that parse shares and seeded runs use that many processes. Returns the
    list to which each `os.fork` from then on appends the forked child's
    pid."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    forks: list = []

    def fork():
        pid = _FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def two_triangles():
    """Triangles {0,1,2} and {3,4,5} joined by the bridge 2-3; m = 7."""
    return graph_from_pairs(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    )


@pytest.fixture
def triangle_partition():
    return (0, 0, 0, 1, 1, 1)


@pytest.fixture
def run_cli(capsys):
    """Runs `depnet.cli.main` on an argument list in this process and
    returns its exit code, stdout and stderr."""

    def run(args):
        code = main(args)
        out, err = capsys.readouterr()
        return code, out, err

    return run
