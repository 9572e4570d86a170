"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines. Criterion 11 is conditional on user-supplied network data
(DEPNET_REFERENCE_EDGES) and is skipped otherwise.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from depnet import (build_graph, detect_eb, detect_lp,
                    detect_mo, fit_power_law, induced_subgraph,
                    load_edge_list, modularity, nmi, package_partition,
                    refine_packages, run_batch, split_disconnected)

from conftest import CORPUS_DIR, GOLDEN_EDGES, components, graph_from_pairs
from oracles import (best_q_exhaustive, blocks_of, modularity_ordered_pairs,
                     nmi_direct, random_multigraph, random_partition)

TWO_TRIANGLES_Q = 5 / 14


def report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS ({detail})")


def two_triangles_graph():
    return graph_from_pairs(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


def test_criterion_1_modularity_oracle_equivalence():
    rng = random.Random(2024)
    start = time.monotonic()
    for _ in range(200):
        g = random_multigraph(rng, max_nodes=8, max_edges=16)
        part = random_partition(rng, g.n_nodes)
        fast = modularity(g, part)
        slow = modularity_ordered_pairs(g, part)
        assert fast == pytest.approx(slow, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"200 random multigraphs in {elapsed:.2f}s")


def test_criterion_2_trivial_partition_identities():
    rng = random.Random(7)
    graphs = [random_multigraph(rng) for _ in range(50)] + [two_triangles_graph()]
    for g in graphs:
        n = g.n_nodes
        one_block = (0,) * n
        assert modularity(g, one_block) == pytest.approx(0.0, abs=1e-12)
        singletons = tuple(range(n))
        closed_form = -sum(k * k for k in g.degree) / (2 * g.m) ** 2
        assert modularity(g, singletons) == pytest.approx(closed_form, abs=1e-12)
    report(2, f"{len(graphs)} graphs")


def test_criterion_3_brute_force_dominance():
    start = time.monotonic()
    rng = random.Random(99)
    for _ in range(50):
        g = random_multigraph(rng, max_nodes=8, max_edges=16)
        q_star = best_q_exhaustive(g)
        q_mo = modularity(g, detect_mo(g, seed=rng.randrange(1 << 32))[0])
        q_eb = modularity(g, detect_eb(g)[0])
        assert q_star >= q_mo - 1e-12
        assert q_star >= q_eb - 1e-12
    fixture = two_triangles_graph()
    q_eb = modularity(fixture, detect_eb(fixture)[0])
    q_mo = modularity(fixture, detect_mo(fixture, seed=0)[0])
    q_star = best_q_exhaustive(fixture)
    for q in (q_eb, q_mo, q_star):
        assert q == pytest.approx(TWO_TRIANGLES_Q, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"50 graphs + fixture in {elapsed:.1f}s")


def test_criterion_4_nmi_identities():
    a = (0, 0, 1, 1)
    assert nmi(a, a) == 1.0
    independent = (0, 1, 0, 1)
    assert nmi(a, independent) == pytest.approx(0.0, abs=1e-12)
    coarse = (0, 0, 0, 1)
    assert nmi(a, coarse) == pytest.approx(0.3437, abs=5e-4)
    assert nmi(a, coarse) == pytest.approx(nmi_direct(a, coarse), abs=1e-12)
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 15)
        x, y = random_partition(rng, n), random_partition(rng, n)
        assert nmi(x, y) == pytest.approx(nmi(y, x), abs=1e-12)
    report(4, "identities + 100 symmetric pairs")


def test_criterion_5_lp_planted_partition_recovery():
    pairs = []
    for c in range(4):
        base = c * 8
        pairs += [(base + i, base + j) for i in range(8) for j in range(i + 1, 8)]
        pairs.append((base + 7, ((c + 1) % 4) * 8))
    g = graph_from_pairs(pairs)
    planted = tuple(u // 8 for u in range(32))
    recovered = 0
    worst_run = 0.0
    for seed in range(100):
        start = time.monotonic()
        part = detect_lp(g, seed)
        worst_run = max(worst_run, time.monotonic() - start)
        if nmi(part, planted) >= 0.95:
            recovered += 1
    assert recovered >= 90
    assert worst_run < 0.1
    report(5, f"{recovered}/100 recovered, slowest run {worst_run * 1000:.1f}ms")


def test_criterion_6_refinement_invariants():
    rng = random.Random(12)
    for _ in range(100):
        g = random_multigraph(rng)
        initial = random_partition(rng, g.n_nodes)
        refined = refine_packages(g, initial, seed=rng.randrange(1 << 32))
        assert set(refined) <= set(initial)
    fixture = two_triangles_graph()
    initial = ("a", "a", "b", "c", "c", "c")
    q_before = modularity(fixture, initial)
    refined = refine_packages(fixture, initial, seed=0)
    q_after = modularity(fixture, refined)
    assert q_before == pytest.approx(
        modularity_ordered_pairs(fixture, initial), abs=1e-12)
    assert q_before == pytest.approx(0.193878, abs=1e-6)
    assert q_after == pytest.approx(
        modularity_ordered_pairs(fixture, refined), abs=1e-12)
    assert q_after == pytest.approx(TWO_TRIANGLES_Q, abs=1e-9)
    report(6, f"100/100 label subsets; fixture Q {q_before:.6f} -> {q_after:.6f}")


def test_criterion_7_power_law_mle():
    numpy = pytest.importorskip("numpy")
    start = time.monotonic()
    hits = 0
    for seed in range(100):
        samples = numpy.random.default_rng(seed).zipf(2.0, size=10_000)
        alpha = fit_power_law(samples.tolist(), xmin=1)
        if 1.9 <= alpha <= 2.1:
            hits += 1
    elapsed = time.monotonic() - start
    assert hits >= 95
    assert elapsed < 10.0
    report(7, f"{hits}/100 within [1.9, 2.1] in {elapsed:.1f}s")


def test_criterion_8_parser_golden_corpus():
    from depnet import parse_corpus, remove_isolated, write_edge_list

    files = sorted(CORPUS_DIR.glob("*.chd"))
    assert len(files) >= 20
    fqns, deps = parse_corpus((p.name, p.read_text()) for p in files)
    g = remove_isolated(build_graph(fqns, deps))
    assert write_edge_list(deps) == GOLDEN_EDGES.read_text()
    report(8, f"{len(files)} files, {g.m} edges match the golden multiset")


def test_criterion_9_package_split_connectedness():
    fixtures = [
        # one package spread over two components, one clean package
        graph_from_pairs([(0, 1), (2, 3), (4, 5)]),
        two_triangles_graph(),
    ]
    partitions = [
        ("p", "p", "p", "p", "q", "q"),
        ("p", "p", "q", "q", "p", "p"),
    ]
    for g, part in zip(fixtures, partitions):
        plus = split_disconnected(g, part)
        for block in blocks_of(plus).values():
            sub = induced_subgraph(g, block)
            assert len(set(components(sub))) == 1
        assert split_disconnected(g, plus) == plus
    report(9, "all P+ blocks connected; idempotent")


def test_criterion_10_end_to_end_determinism(tmp_path, run_cli):
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code, _, stderr = run_cli(
            ["report", str(CORPUS_DIR), "--runs", "10", "--eb-runs", "2",
             "--seed", "42", "--out", str(out)])
        assert code == 0, stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(10, f"{len(outputs[0])} byte report, identical twice")


def test_criterion_11_reference_network_cross_check():
    path = os.environ.get("DEPNET_REFERENCE_EDGES")
    if not path:
        pytest.skip("set DEPNET_REFERENCE_EDGES to a reconstructed edge list "
                    "to enable the published-network cross-check")
    graph = load_edge_list(Path(path).read_text(encoding="utf-8"))
    reference = package_partition(graph)
    summary = {}
    for algo in ("mo", "lp"):
        record, _ = run_batch(graph, (algo,), runs=10, base_seed=42,
                              reference=reference)[algo]
        summary[algo] = record["mean_q"]
        assert 0.40 <= record["mean_q"] <= 0.80
        assert record["significant"]
    report(11, json.dumps(summary))
