import json
import os
import pickle
import random
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from depnet import (DepnetError, FormatError, GraphError, ParseError,
                    ResolveError, SizeCapError, build_graph, detect_lp,
                    detect_mo, fit_power_law, induced_subgraph, modularity,
                    nmi, report, run_batch, size_distribution,
                    split_disconnected)
from depnet import detect
from depnet.cli import main
from depnet.graph import relabel_dense
from depnet.ingest import load_edge_list, package_partition
from depnet.metrics import package_analysis

from conftest import components, generate_tree, graph_from_pairs, use_cpus
from oracles import (blocks_of, modularity_ordered_pairs, nmi_direct, random_multigraph,
                     random_partition, random_sparse_multigraph,
                     split_disconnected_reference)


class TestModularity:
    def test_one_block_is_zero(self, two_triangles):
        part = (0,) * 6
        assert modularity(two_triangles, part) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles_value(self, two_triangles, triangle_partition):
        q = modularity(two_triangles, triangle_partition)
        assert q == pytest.approx(5 / 14, abs=1e-12)
        assert q == pytest.approx(
            modularity_ordered_pairs(two_triangles, triangle_partition), abs=1e-12)

    def test_singleton_closed_form(self, two_triangles):
        part = tuple(range(6))
        expected = -sum(k * k for k in two_triangles.degree) / (2 * two_triangles.m) ** 2
        assert modularity(two_triangles, part) == pytest.approx(expected, abs=1e-12)
        assert expected < 0

    def test_matches_ordered_pair_oracle_on_random_inputs(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_multigraph(rng)
            part = random_partition(rng, g.n_nodes)
            assert modularity(g, part) == pytest.approx(
                modularity_ordered_pairs(g, part), abs=1e-12)

    def test_relabeling_invariant(self, two_triangles, triangle_partition):
        renamed = tuple(f"blk{lbl}" for lbl in triangle_partition)
        assert modularity(two_triangles, renamed) == \
            modularity(two_triangles, triangle_partition)

    def test_empty_graph_rejected(self):
        g = build_graph(["A", "B"], [])
        with pytest.raises(GraphError):
            modularity(g, (0, 0))

    def test_partial_cover_rejected(self, two_triangles):
        with pytest.raises(GraphError):
            modularity(two_triangles, (0,))


class TestNMI:
    def test_identical_is_one(self):
        part = (0, 0, 1, 1)
        assert nmi(part, part) == 1.0

    def test_independent_is_zero(self):
        a = (0, 0, 1, 1)
        b = (0, 1, 0, 1)
        assert nmi(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        a = (0, 0, 1, 1)
        b = (0, 0, 0, 1)
        assert nmi(a, b) == pytest.approx(0.3437, abs=5e-4)
        assert nmi(a, b) == pytest.approx(nmi_direct(a, b), abs=1e-12)

    def test_both_trivial_is_one(self):
        a = ("x", "x")
        b = ("y", "y")
        assert nmi(a, b) == 1.0

    def test_symmetry_and_bounds_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 12)
            a, b = random_partition(rng, n), random_partition(rng, n)
            assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
            assert -1e-12 <= nmi(a, b) <= 1 + 1e-12

    def test_mismatched_nodes_rejected(self):
        with pytest.raises(GraphError):
            nmi((0, 0), (0,))
        with pytest.raises(GraphError):
            nmi((0,), (0, 0))

    def test_equal_partitions_give_identical_nmi(self):
        # Equal partitions built from dicts in different insertion orders:
        # nmi's float sums must not depend on how a partition was built.
        labels = {0: 1, 1: 0, 2: 0, 3: 1, 4: 2, 5: 2, 6: 2, 7: 0, 8: 3, 9: 2,
                  10: 2, 11: 3, 12: 3}
        order = [11, 8, 10, 6, 4, 0, 3, 5, 12, 1, 9, 7, 2]
        shuffled = {node: labels[node] for node in order}
        a = tuple(labels[node] for node in range(13))
        b = tuple(shuffled[node] for node in range(13))
        ref = (1, 0, 0, 2, 0, 0, 1, 2, 1, 0, 0, 1, 1)
        assert a == b
        assert nmi(a, ref) == nmi(b, ref)
        assert nmi(ref, a) == nmi(ref, b)


class TestSplitDisconnected:
    def test_disconnected_block_split(self):
        g = graph_from_pairs([(0, 1), (2, 3)])
        part = ("pkg",) * 4
        result = split_disconnected(g, part)
        assert len(set(result)) == 2
        assert set(result) == {"pkg#1", "pkg#2"}

    def test_connected_blocks_untouched(self, two_triangles, triangle_partition):
        result = split_disconnected(two_triangles, triangle_partition)
        assert result == triangle_partition

    def test_idempotent(self):
        g = graph_from_pairs([(0, 1), (2, 3), (4, 5)])
        part = ("p",) * 6
        once = split_disconnected(g, part)
        assert split_disconnected(g, once) == once

    def test_every_result_block_connected(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_multigraph(rng)
            part = random_partition(rng, g.n_nodes)
            result = split_disconnected(g, part)
            for block in blocks_of(result).values():
                sub = induced_subgraph(g, block)
                assert len(set(components(sub))) == 1

    def test_part_names_skip_labels_in_use(self, tmp_path):
        """Package p splits into {p.A, p.B} and {p.C, p.D}, and p#1 is the
        package of p#1.E: the parts are named p#2 and p#3, so P+ has three
        connected blocks and splitting it again changes nothing."""
        edges = tmp_path / "edges.tsv"
        edges.write_text("#depnet-edges v1 isolated=drop\n"
                         "p#1.E\tp.D\tfield\n"
                         "p.A\tp.B\tfield\n"
                         "p.C\tp.D\tfield\n")
        with open(edges, encoding="utf-8") as stream:
            g = load_edge_list(stream)
        _, packages_plus, _ = package_analysis(g)
        assert dict(zip(g.fqns, packages_plus)) == {
            "p#1.E": "p#1", "p.A": "p#2", "p.B": "p#2", "p.C": "p#3",
            "p.D": "p#3"}
        assert split_disconnected(g, packages_plus) == packages_plus
        out = tmp_path / "report.json"
        assert main(["report", str(edges), "--runs", "2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["packages"]["blocks_plus"] == 3

    def test_label_order_matches_reference(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_sparse_multigraph(rng, rng.randint(2, 300),
                                         rng.choice([0.5, 1.0, 2.0]))
            part = random_partition(rng, g.n_nodes)
            assert (split_disconnected(g, part)
                    == split_disconnected_reference(g, part))


class TestPackageAnalysis:
    def test_split_packages_listed(self):
        F = "field"
        g = build_graph(["a.A", "a.B", "a.C", "b.D", "b.E"],
                        [("a.A", "a.B", F), ("b.D", "b.E", F), ("a.C", "b.D", F)])
        packages, packages_plus, disconnected = package_analysis(g)
        assert packages == ("a", "a", "a", "b", "b")
        assert packages_plus == ("a#1", "a#1", "a#2", "b", "b")
        assert disconnected == ["a"]


class TestAgainstNetworkx:
    """Q and components against networkx, on the weighted simple graph whose
    weights are the edge multiplicities."""

    @staticmethod
    def simple_graph(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n_nodes))
        for u in range(g.n_nodes):
            for v, w in g.neighbors(u).items():
                h.add_edge(u, v, weight=w)
        assert h.number_of_edges() == g.n_edges
        return h

    def test_modularity(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(43)
        for n in (12, 60, 300, 2000):
            g = random_sparse_multigraph(rng, n, rng.choice([0.7, 1.5, 4.0]))
            h = self.simple_graph(nx, g)
            packages = tuple(u * 7 // n for u in range(n))
            partitions = [
                random_partition(rng, n),
                detect_mo(g, rng.randrange(1 << 32))[0],
                detect_lp(g, rng.randrange(1 << 32)),
                split_disconnected(g, packages),
            ]
            for part in partitions:
                expected = nx.community.modularity(h, blocks_of(part).values(),
                                                   weight="weight")
                assert modularity(g, part) == pytest.approx(expected, rel=1e-9)

    def test_connected_components(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(47)
        for n in (12, 60, 300, 2000):
            g = random_sparse_multigraph(rng, n, rng.choice([0.3, 0.5, 1.0]))
            expected = {frozenset(c) for c in
                        nx.connected_components(self.simple_graph(nx, g))}
            assert set(blocks_of(components(g)).values()) == expected


class TestSizeDistribution:
    def test_ccdf_values(self):
        part = ("a", "a", "b", "b", "c", "c", "c", "c")
        dist = size_distribution(part)
        assert dist["sizes"] == [2, 2, 4]
        ccdf = dict(dist["ccdf"])
        assert ccdf[2] == pytest.approx(1.0)
        assert ccdf[4] == pytest.approx(1 / 3)

    def test_single_block(self):
        dist = size_distribution(("a", "a"))
        assert dist["ccdf"] == [[2, 1.0]]

    def test_all_singletons(self):
        dist = size_distribution(tuple(range(5)))
        assert dist["ccdf"] == [[1, 1.0]]

    def test_ccdf_non_increasing(self):
        rng = random.Random(17)
        part = random_partition(rng, 30)
        dist = size_distribution(part)
        assert [s for s, _ in dist["ccdf"]] == sorted(set(dist["sizes"]))
        values = [fraction for _, fraction in dist["ccdf"]]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(1.0)

    def test_record_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        part = random_partition(random.Random(5), 40)
        jsonschema.validate(size_distribution(part, xmin=2),
                            report._DISTRIBUTION_SCHEMA)


class TestPowerLawFit:
    def test_declined_with_too_few_sizes(self):
        assert fit_power_law([5, 6]) is None
        assert fit_power_law([1, 2, 3], xmin=3) is None

    @pytest.mark.parametrize("xmin", [0, -2])
    def test_xmin_below_one_rejected(self, xmin):
        """xmin = 0 used to divide by zero in the zeta tail."""
        for sizes in ([1, 2, 3, 5], [4]):
            with pytest.raises(GraphError, match="xmin"):
                fit_power_law(sizes, xmin)
        with pytest.raises(GraphError, match="xmin"):
            size_distribution(("a", "a", "b"), xmin)

    def test_degenerate_discrete_fit_declined(self):
        assert fit_power_law([1, 1, 1, 1]) is None

    def test_discrete_matches_zeta_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        sizes = [1] * 40 + [2] * 12 + [3] * 5 + [4] * 2 + [9]
        alpha = fit_power_law(sizes)
        # oracle: scan the exact zeta-normalized likelihood on a fine grid
        import math as m
        log_sum = sum(m.log(s) for s in sizes)
        grid = [1.01 + i * 1e-3 for i in range(4000)]
        best = max(grid, key=lambda a: -a * log_sum
                   - len(sizes) * m.log(float(mpmath.zeta(a, 1))))
        assert alpha == pytest.approx(best, abs=2e-3)

    def test_recovers_exponent_from_samples(self):
        numpy = pytest.importorskip("numpy")
        hits = 0
        for seed in range(20):
            samples = numpy.random.default_rng(seed).zipf(2.0, size=10_000)
            alpha = fit_power_law(samples.tolist())
            if 1.9 <= alpha <= 2.1:
                hits += 1
        assert hits >= 19


class TestRunBatch:
    def test_single_run_mean(self, two_triangles, triangle_partition):
        record, best = run_batch(two_triangles, ("lp",), 1, 42,
                                 triangle_partition)["lp"]
        assert record["mean_q"] == record["q_values"][0]
        assert len(best) == two_triangles.n_nodes

    def test_mo_unique_optimum(self, two_triangles, triangle_partition):
        record, best = run_batch(two_triangles, ("mo",), 5, 0,
                                 triangle_partition)["mo"]
        assert record["mean_q"] == pytest.approx(5 / 14)
        assert record["peak_nmi"] == pytest.approx(1.0)
        assert relabel_dense(best) == relabel_dense(triangle_partition)

    def test_eb_runs_once(self, two_triangles, triangle_partition):
        record, _ = run_batch(two_triangles, ("eb",), 10, 0,
                              triangle_partition)["eb"]
        assert len(record["q_values"]) == record["runs"] == 1

    def test_mean_within_bounds(self, two_triangles, triangle_partition):
        record, _ = run_batch(two_triangles, ("lp",), 20, 0,
                              triangle_partition)["lp"]
        q_values = record["q_values"]
        assert min(q_values) <= record["mean_q"] <= max(q_values)
        assert record["peak_nmi"] == max(record["nmi_values"])

    @pytest.mark.parametrize("algorithm", ["eb", "mo", "lp"])
    def test_record_matches_schema(self, two_triangles, triangle_partition,
                                   algorithm):
        jsonschema = pytest.importorskip("jsonschema")
        record, _ = run_batch(two_triangles, (algorithm,), 3, 0,
                              triangle_partition)[algorithm]
        jsonschema.validate(record, report._BATCH_SCHEMA)
        assert record["algorithm"] == algorithm

    def test_unknown_algorithm(self, two_triangles, triangle_partition):
        with pytest.raises(GraphError):
            run_batch(two_triangles, ("louvain",), 1, 0, triangle_partition)

    def test_mo_q_is_modularity_of_each_run(self, tmp_path):
        """MO's Q comes from its best level, not a recount: the same float."""
        edges = generate_tree(tmp_path, 4, 100) / "expected_edges.tsv"
        with open(edges, encoding="utf-8") as stream:
            g = load_edge_list(stream)
        record, _ = run_batch(g, ("mo",), 20, 0, package_partition(g))["mo"]
        assert record["q_values"] == [modularity(g, detect_mo(g, seed)[0])
                                      for seed in range(20)]

    @pytest.mark.parametrize("algorithm", ["mo", "lp", "eb"])
    def test_no_edges_raises_modularity_error(self, algorithm):
        g = build_graph(["a.A", "a.B", "b.C"], [])
        with pytest.raises(GraphError,
                           match="modularity undefined for a graph with no edges"):
            run_batch(g, (algorithm,), 2, 0, ("a", "a", "b"))


def path_network(tmp_path):
    """Write the edge file of a 41-node path, on which label propagation
    needs more than one sweep; returns its path."""
    network = tmp_path / "path.tsv"
    network.write_text("#depnet-edges v1 isolated=drop\n" + "".join(
        f"{a}\t{b}\tfield\n" for a, b in sorted(
            tuple(sorted((f"n{u}", f"n{u + 1}"))) for u in range(40))))
    return network


class TestRunBatchWorkers:
    """Each CPU count makes a different number of workers; the results,
    warnings and errors must not depend on it."""

    @staticmethod
    def cap_hits(graph, algorithms, runs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_batch(graph, algorithms, runs, 0, (0,) * graph.n_nodes)
        return [(w.category, str(w.message), w.filename, w.lineno)
                for w in caught]

    def test_cap_warnings_in_seed_order(self, monkeypatch):
        monkeypatch.setattr(detect, "LP_SWEEP_CAP", 1)
        path = graph_from_pairs([(u, u + 1) for u in range(40)])
        expected = []
        for seed in range(6):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                detect_lp(path, seed)
            expected += [(w.category, str(w.message), w.filename, w.lineno)
                         for w in caught]
        assert len(expected) == 6
        for count, forked in ((1, 0), (2, 2)):
            forks = use_cpus(monkeypatch, count)
            assert self.cap_hits(path, ("mo", "lp"), 6) == expected
            assert self.cap_hits(path, ("lp",), 6) == expected
            assert len(forks) == forked

    def test_cap_warning_printed_once_as_in_one_process(self, tmp_path):
        """Under the default filter a repeated warning prints once, at
        depnet/detect.py, whichever process raised it."""
        network = path_network(tmp_path)
        script = ("import os, sys; from depnet import detect; "
                  "from depnet.cli import main; "
                  "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1]))); "
                  "detect.LP_SWEEP_CAP = 1; sys.exit(main(sys.argv[2:]))")
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for count in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script, count, "detect", str(network),
                 "--algo", "lp", "--runs", "4"],
                capture_output=True, text=True, check=True, timeout=120,
                env={"PYTHONPATH": str(src)})
            outputs.append((result.stdout, result.stderr))
        assert outputs[0] == outputs[1]
        stderr = outputs[0][1]
        assert stderr.count("hit the sweep cap (1)") == 1
        assert stderr.startswith(str(src / "depnet" / "detect.py") + ":")

    def test_first_error_in_task_order_propagates(self, monkeypatch,
                                                  two_triangles):
        real = detect.detect_lp

        def failing(graph, seed):
            if seed >= 2:
                raise GraphError(f"no labels for seed {seed}")
            return real(graph, seed)

        monkeypatch.setattr(detect, "detect_lp", failing)
        for count, forked in ((1, 0), (2, 1)):
            forks = use_cpus(monkeypatch, count)
            with pytest.raises(GraphError) as info:
                run_batch(two_triangles, ("mo", "lp"), 4, 0, (0,) * 6)
            assert type(info.value) is GraphError
            assert str(info.value) == "no labels for seed 2"
            assert len(forks) == forked

    def test_every_run_ends_before_an_error_propagates(
            self, monkeypatch, two_triangles, tmp_path):
        """A failed run lets the others finish first: none is stopped in
        mid-run."""
        real = detect.detect_lp

        def failing(graph, seed):
            if seed == 0:
                raise GraphError("no labels for seed 0")
            time.sleep(0.2)
            (tmp_path / f"seed{seed}").touch()
            return real(graph, seed)

        monkeypatch.setattr(detect, "detect_lp", failing)
        use_cpus(monkeypatch, 2)
        with pytest.raises(GraphError, match="seed 0"):
            run_batch(two_triangles, ("lp",), 6, 0, (0,) * 6)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"seed{seed}" for seed in range(1, 6)]

    @pytest.mark.parametrize("count", [1, 2])
    def test_every_run_ends_before_any_exception_propagates(
            self, monkeypatch, two_triangles, tmp_path, count):
        """Not only a DepnetError: a defect in a detector lets the other
        runs finish too, in a worker or in this process."""
        real = detect.detect_lp

        def failing(graph, seed):
            if seed == 0:
                raise KeyError(seed)
            time.sleep(0.2)
            (tmp_path / f"seed{seed}").touch()
            return real(graph, seed)

        monkeypatch.setattr(detect, "detect_lp", failing)
        use_cpus(monkeypatch, count)
        with pytest.raises(KeyError):
            run_batch(two_triangles, ("lp",), 6, 0, (0,) * 6)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"seed{seed}" for seed in range(1, 6)]

    def test_every_error_survives_the_trip_from_a_worker(self):
        """A run's exception is pickled on its way back from a worker."""
        def family(cls):
            return {cls}.union(*map(family, cls.__subclasses__()))

        errors = [cls("m") for cls in (DepnetError, GraphError, ResolveError,
                                       FormatError, SizeCapError)]
        errors += [ParseError("m", 1, 2, "f"), ParseError("m", 3, 4)]
        assert {type(error) for error in errors} == family(DepnetError)
        for error in errors:
            back = pickle.loads(pickle.dumps(error))
            assert type(back) is type(error)
            assert (str(back), vars(back)) == (str(error), vars(error))

    def test_workers_exit_before_the_batch_returns(self, monkeypatch,
                                                    two_triangles):
        """Every worker has exited, with status 0, when the batch returns,
        after a batch that succeeds and after one whose runs fail: none is
        killed, and none is left running."""
        real_waitpid = os.waitpid
        statuses: dict = {}

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses[reaped[0]] = reaped[1]
            return reaped

        monkeypatch.setattr(os, "waitpid", waitpid)
        forks = use_cpus(monkeypatch, 2)
        run_batch(two_triangles, ("mo", "lp"), 4, 0, (0,) * 6)
        with pytest.raises(GraphError, match="no edges"):
            run_batch(build_graph(["a", "b"], []), ("lp",), 4, 0, (0, 0))
        assert len(forks) == 2
        assert statuses == {pid: 0 for pid in forks}
        with pytest.raises(ChildProcessError):
            real_waitpid(-1, os.WNOHANG)

    def test_a_dead_worker_ends_the_command_with_an_error(self, tmp_path):
        """A worker killed in mid-batch ends `detect` with exit 2 and one
        error line, and leaves no process running. The worker kills itself
        on its first run, seed 0; the command's own process runs the rest."""
        network = path_network(tmp_path)
        script = (
            "import os, signal, sys; from depnet import detect; "
            "from depnet.cli import main; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "real = detect.detect_lp; own = os.getpid()\n"
            "def detect_lp(graph, seed):\n"
            "    if os.getpid() != own: os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(graph, seed)\n"
            "detect.detect_lp = detect_lp; sys.exit(main(sys.argv[1:]))")
        src = Path(__file__).resolve().parents[1] / "src"
        process = subprocess.Popen(
            [sys.executable, "-c", script, "detect", str(network),
             "--algo", "lp", "--runs", "6", "--seed", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(src)}, start_new_session=True)
        try:
            stdout, stderr = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("detect hung after its worker died")
        assert (process.returncode, stdout) == (2, "")
        assert stderr == "error: a worker process died in mid-run\n"
        # The session's process group is empty once its workers are gone.
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(process.pid, signal.SIGKILL)
                pytest.fail("a worker outlived the command")
            time.sleep(0.05)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_modularity_oracle_agreement_property(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng)
    part = random_partition(rng, g.n_nodes)
    assert modularity(g, part) == pytest.approx(
        modularity_ordered_pairs(g, part), abs=1e-12)
