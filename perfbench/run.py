"""Benchmark of the depnet command line on seeded, generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the depnet sources in `src/` next to this
directory and works in `.perfbench-work/` there, which it removes on exit.

The run generates its inputs from the seed modulo 100, the seeds whose
output digests are pinned in `digests.json`. It then repeats the workload's
command sequence, each command a child process, for S seconds; before each
repetition it times two bare `depnet --help` children for `setup_s`. Every
command's output is checked: exit code, the generator's independent
expectations, the report schema, package modularity recomputed here, and
the pinned sha256; a missing digest fails the check.

With --trace 0 it reports the end-to-end metrics as medians over the
repetitions. With --trace 1 it alternates untraced repetitions with traced
ones, in which every command runs under `tracer.py`, and reports per-layer
times and counts. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from gen import Shape, generate  # noqa: E402
from tracer import LAYERS  # noqa: E402

EDGES = "expected_edges.tsv"
# Inputs come from the seed modulo this, so that every run's outputs have a
# digest pinned in digests.json (pin.py pins seeds 0 to PINNED_SEEDS - 1).
PINNED_SEEDS = 100
Q_TOLERANCE = 1e-9
SETUP_PER_ROUND = 2
# A run must end within 180 s; a command still running at this many seconds
# into the run is killed and counted as failed.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    shape: Shape
    # depnet arguments per command, run in the work directory that holds the
    # generated `src/` tree and `expected_edges.tsv`.
    commands: tuple[tuple[str, ...], ...]
    # The file each command writes; its bytes are pinned in digests.json.
    outputs: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json; in short:
# corpus-large is parse- and resolve-bound, runs no EB or MO, and is the only
# one that writes and reads edge and partition files and exports; report-mid
# is the only one where EB runs; report-large passes the EB edge cap, so MO
# does most of the work, and its TSV input bypasses the headers layer.
WORKLOADS = {
    "corpus-large": Workload(
        Shape(classes=2500, per_package=20, refs=4, cross=0.2, external=0.1,
              noise=0.3),
        (("extract", "src", "--out", "edges.tsv"),
         ("refine", "edges.tsv", "--out", "refined.tsv"),
         ("detect", "edges.tsv", "--algo", "lp", "--runs", "1",
          "--out", "part.tsv"),
         ("abstract", "edges.tsv", "part.tsv", "--format", "graphml",
          "--out", "communities.graphml")),
        ("edges.tsv", "refined.tsv", "part.tsv", "communities.graphml"),
    ),
    "report-mid": Workload(
        Shape(classes=100, per_package=10, refs=4, cross=0.2, external=0.1,
              noise=0.3),
        (("report", "src", "--out", "report.json"),),
        ("report.json",),
    ),
    "report-large": Workload(
        Shape(classes=1000, per_package=40, refs=6, cross=0.2, external=0.1,
              noise=0.3),
        (("report", EDGES, "--runs", "1", "--out", "report.json"),),
        ("report.json",),
    ),
}


@dataclass
class Command:
    wall: float
    cpu: float
    rss_mb: float
    failure: str | None


@dataclass
class Sample:
    commands: list[Command] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under .perfbench-work/, removed on exit."""
    root = ROOT / ".perfbench-work"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> dict[str, str]:
    """Environment for depnet children: our sources, no output-changing vars."""
    env = dict(os.environ)
    env.pop("SOURCE_DATE_EPOCH", None)  # would add a timestamp to reports
    env.pop("DEPNET_SEED", None)        # would override --seed
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, stdout: Path,
          kill_at: float) -> tuple[int, Command]:
    """Run one child to completion; its own rusage comes from wait4.

    The child is killed if it is still running at perf_counter() == kill_at.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(max(0.0, kill_at - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, Command(wall, cpu, usage.ru_maxrss / 1024.0, None)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def package_q(edges_tsv: Path) -> tuple[float, int, int]:
    """Package modularity, node and edge count of an edge TSV, stdlib only."""
    lines = edges_tsv.read_text(encoding="utf-8").splitlines()[1:]
    intra: Counter = Counter()
    degree: Counter = Counter()
    nodes = set()
    for line in lines:
        a, b, _ = line.split("\t")
        nodes.update((a, b))
        pa, pb = a.rsplit(".", 1)[0], b.rsplit(".", 1)[0]
        degree[pa] += 1
        degree[pb] += 1
        intra[pa] += pa == pb
    m = len(lines)
    q = sum(intra[p] / m - (degree[p] / (2 * m)) ** 2 for p in degree)
    return q, len(nodes), m


class Checker:
    """Checks each command's outputs against independent expectations."""

    def __init__(self, name: str, input_seed: int, work: Path,
                 pinned: bool = True):
        self.name, self.work = name, work
        self.q, self.nodes, self.edges = package_q(work / EDGES)
        # Without `pinned` the digest check is off; only pin.py turns it off.
        self.digests = None
        if pinned:
            table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            self.digests = table.get(name, {}).get(str(input_seed), {})
        from depnet.report import REPORT_SCHEMA
        import jsonschema
        self.validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)

    def same_q(self, value: float, what: str) -> None:
        if abs(value - self.q) > Q_TOLERANCE:
            raise AssertionError(f"{what} {value!r} != recomputed {self.q!r}")

    def check(self, index: int, stdout: bytes) -> None:
        """Raise AssertionError naming the first check command `index` fails."""
        argv = WORKLOADS[self.name].commands[index]
        verb = argv[0]
        if verb == "extract":
            if (self.work / "edges.tsv").read_bytes() != \
                    (self.work / EDGES).read_bytes():
                raise AssertionError("edge file differs from generator's edges")
        elif verb == "refine":
            self.same_q(json.loads(stdout)["q_packages"], "refine q_packages")
        elif verb == "detect":
            stats = json.loads(stdout)
            if stats["runs"] != int(argv[argv.index("--runs") + 1]):
                raise AssertionError(f"detect ran {stats['runs']} runs")
        elif verb == "abstract":
            ET.parse(self.work / "communities.graphml")
        elif verb == "report":
            doc = json.loads((self.work / "report.json").read_bytes())
            errors = sorted(self.validator.iter_errors(doc), key=str)
            if errors:
                raise AssertionError(f"report schema: {errors[0].message}")
            self.same_q(doc["packages"]["q"], "report packages.q")
            network = (doc["network"]["nodes"], doc["network"]["edges"])
            if network != (self.nodes, self.edges):
                raise AssertionError(f"report network {network} != "
                                     f"{(self.nodes, self.edges)}")
            eb_skipped = "skipped" in doc["algorithms"]["eb"]
            if eb_skipped != (self.name == "report-large"):
                raise AssertionError(f"EB skipped={eb_skipped}")
        out = WORKLOADS[self.name].outputs[index]
        if self.digests is None:
            return
        if out not in self.digests:
            raise AssertionError(f"{out} has no pinned digest")
        if sha256(self.work / out) != self.digests[out]:
            raise AssertionError(f"{out} differs from its pinned digest")


def run_sample(name: str, work: Path, checker: Checker, kill_at: float,
               trace_id: str | None = None) -> Sample:
    """Run the workload's commands once, in order, and check each output."""
    sample = Sample()
    for index, args in enumerate(WORKLOADS[name].commands):
        stdout = work / f"cmd{index}.out"
        if trace_id is None:
            argv = [sys.executable, "-m", "depnet.cli", *args]
        else:
            spans_file = work / f"cmd{index}.spans.json"
            spans_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_file),
                    f"{trace_id}-{index}", *args]
        code, command = spawn(argv, work, stdout, kill_at)
        if trace_id is not None and spans_file.exists():
            spans = json.loads(spans_file.read_text())
            # The process wall time closes the command's span list.
            sample.spans.append([spans, command.wall])
        if code != 0:
            command.failure = f"exit code {code}"
        else:
            try:
                checker.check(index, stdout.read_bytes())
            except (AssertionError, ValueError, KeyError, ET.ParseError) as exc:
                command.failure = f"{type(exc).__name__}: {exc}"
        if command.failure:
            print(f"FAILED {' '.join(args)}: {command.failure}")
        sample.commands.append(command)
    return sample


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(sample: Sample) -> dict[str, float]:
    """Per-layer times and counts of one traced repetition."""
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    layer_self: defaultdict = defaultdict(float)
    maxima: dict[str, int] = defaultdict(int)
    eb_passes = eb_splits = 0
    traced_wall = 0.0
    for spans, wall in sample.spans:
        traced_wall += wall
        child_time = [0.0] * len(spans)
        children: defaultdict = defaultdict(list)
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent is not None:
                child_time[parent] += end - start
                children[parent].append(i)
        for i, (name, start, end, _, _, attrs) in enumerate(spans):
            duration = end - start
            incl[name] += duration
            calls[name] += 1
            own = duration - child_time[i]
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            for key, value in attrs.items():
                if key == "error":
                    continue
                if key in ("nodes", "edges"):
                    maxima[f"{name}.{key}"] = max(maxima[f"{name}.{key}"], value)
                else:
                    counts[f"{name}.{key}"] += value
            if name == "detect.detect_eb" and "error" not in attrs:
                # Every cut of the collapsed graph costs one Brandes pass.
                eb_passes += sum(spans[c][5].get("collapsed_edges", 0)
                                 for c in children[i])
                eb_splits += attrs["levels"] - 1

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse_s = incl["headers.parse_class_headers"]
    out = {
        "headers.tokenize.s": incl["headers.tokenize"],
        "headers.parse_class_headers.self_s": self_s["headers.parse_class_headers"],
        "headers.tokens": counts["headers.tokenize.tokens"],
        "headers.decls": counts["headers.parse_class_headers.decls"],
        "headers.mb_per_s": share(
            counts["headers.parse_class_headers.bytes"] / 1e6, parse_s),
        "ingest.resolve_dependencies.s": incl["ingest.resolve_dependencies"],
        "ingest.refs": counts["ingest.resolve_dependencies.refs"],
        "ingest.deps": counts["ingest.resolve_dependencies.deps"],
        "ingest.resolved_share": share(
            counts["ingest.resolve_dependencies.deps"],
            counts["ingest.resolve_dependencies.refs"]),
        "graph.nodes": maxima["graph.remove_isolated.nodes"],
        "graph.edges": maxima["graph.remove_isolated.edges"],
        "graph.collapsed_edges": counts["graph.collapse_to_weighted.collapsed_edges"],
        "detect.eb.betweenness_passes": eb_passes,
        "detect.eb.levels": counts["detect.detect_eb.levels"],
        "detect.eb.splitting_cut_share": share(eb_splits, eb_passes),
        "detect.detect_mo.calls": calls["detect.detect_mo"],
        "detect.mo.merges": counts["detect.detect_mo.merges"],
        "detect.mo.merges_past_best": counts["detect.detect_mo.merges_past_best"],
        "detect.detect_lp.calls": calls["detect.detect_lp"],
        "detect.lp.cap_hits": counts["detect.detect_lp.cap_hits"]
        + counts["detect.refine_packages.cap_hits"],
        "metrics.run_batch.self_s": self_s["metrics.run_batch"],
        "metrics.modularity.calls": calls["metrics.modularity"],
        "metrics.nmi.calls": calls["metrics.nmi"],
        "report.build_report.self_s": self_s["report.build_report"],
        "report.bytes": counts["report.dump_report.bytes"],
        "trace.wall_s": traced_wall,
    }
    for name in ("ingest.write_edge_list", "ingest.load_edge_list",
                 "ingest.load_partition", "ingest.write_partition",
                 "ingest.package_partition", "graph.build_graph",
                 "graph.remove_isolated", "graph.collapse_to_weighted",
                 "detect.detect_eb", "detect.detect_mo", "detect.detect_lp",
                 "detect.refine_packages", "metrics.modularity", "metrics.nmi",
                 "metrics.split_disconnected", "metrics.size_distribution",
                 "metrics.fit_power_law", "abstract.community_network",
                 "abstract.export", "report.dump_report"):
        out[f"{name}.s"] = incl[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    # Interpreter start-up, imports, tracer set-up and counting, and exit.
    out["trace.remainder_s"] = traced_wall - sum(layer_self[l] for l in LAYERS)
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    kill_at = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[name]
    input_seed = seed % PINNED_SEEDS
    with scratch_dir(f"{name}-{seed}-") as work:
        summary = generate(work, input_seed, workload.shape)
        print(f"workload {name} seed {seed} (inputs of seed {input_seed}): "
              f"{summary.files} classes, {summary.source_bytes} source bytes, "
              f"{summary.edges} edges")
        checker = Checker(name, input_seed, work)

        def setup_wall() -> float:
            code, command = spawn([sys.executable, "-m", "depnet.cli", "--help"],
                                  work, work / "help.out", kill_at)
            if code != 0:
                raise SystemExit(f"depnet --help exited with {code}")
            return command.wall

        setup_wall()  # warms the file cache and writes bytecode caches
        help_walls: list[float] = []
        plain: list[Sample] = []
        traced: list[Sample] = []
        deadline = time.perf_counter() + seconds
        rounds: list[float] = []
        while True:
            began = time.perf_counter()
            # Spread over the run, set-up samples see the same machine as
            # the repetitions rather than one short burst of it.
            help_walls += [setup_wall() for _ in range(SETUP_PER_ROUND)]
            plain.append(run_sample(name, work, checker, kill_at))
            if trace:
                traced.append(run_sample(name, work, checker, kill_at,
                                         trace_id=f"r{len(traced)}"))
            rounds.append(time.perf_counter() - began)
            if time.perf_counter() + statistics.median(rounds) > deadline:
                break

    commands = [c for s in plain + traced for c in s.commands]
    failed = sum(c.failure is not None for c in commands)
    walls = [s.wall for s in plain]
    if trace:
        # All per-layer values come from the traced repetition with the
        # median wall time, so that they add up to its wall time.
        per_sample = sorted((layer_metrics(s) for s in traced),
                            key=lambda m: m["trace.wall_s"])
        metrics = per_sample[(len(per_sample) - 1) // 2]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"traced wall {metrics['trace.wall_s']:.4f} s = layer self times "
              f"{accounted:.4f} s + remainder {metrics['trace.remainder_s']:.4f} s "
              f"(interpreter start-up, imports, tracer counting, exit); the median of "
              f"{len(traced)} traced repetitions, against {len(walls)} untraced")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(sum(c.cpu for c in s.commands)
                                       for s in plain),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in s.commands)
                                             for s in plain),
            "setup_s": statistics.median(help_walls),
        }
        q1, _, q3 = quartiles(walls)
        print(f"wall_s median {metrics['wall_s']:.4f} s over {len(walls)} "
              f"repetitions (q1 {q1:.4f}, q3 {q3:.4f}); setup_s median of "
              f"{len(help_walls)} 'depnet --help' runs")
        print("repetition walls: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"failed_share {failed}/{len(commands)}")
    declared = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise SystemExit("metrics differ from those declared in BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "depnet" / "cli.py").is_file():
        print(f"error: no depnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
