import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes oracles importable

from depnet import DependencyKind, build_graph

DATA_DIR = Path(__file__).parent / "data"
CORPUS_DIR = DATA_DIR / "corpus"
GOLDEN_EDGES = DATA_DIR / "corpus_golden_edges.tsv"

F = DependencyKind.FIELD


def graph_from_pairs(pairs, n=None):
    """Build a test multigraph from (u, v) id pairs; nodes named n0..n{k}."""
    nodes = n if n is not None else max(max(p) for p in pairs) + 1
    fqns = [f"n{i}" for i in range(nodes)]
    return build_graph(fqns, [(fqns[u], fqns[v], F) for u, v in pairs])


@pytest.fixture
def two_triangles():
    """Triangles {0,1,2} and {3,4,5} joined by the bridge 2-3; m = 7."""
    return graph_from_pairs(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    )


@pytest.fixture
def triangle_partition():
    return (0, 0, 0, 1, 1, 1)
