"""Quantitative measures: modularity, NMI, package connectedness, size
distributions with a power-law fit, and batch aggregation over seeded runs."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from typing import Sequence

from . import detect
from .errors import GraphError, SizeCapError
from .graph import (ClassGraph, Label, Partition, check_cover,
                    component_labels, modularity_numerator)
from .ingest import package_partition
from .workers import fork_map, usable_cpus

SIGNIFICANT_Q = 0.30  # conventional threshold for meaningful community structure


def modularity(graph: ClassGraph, partition: Partition) -> float:
    """Newman-Girvan modularity with the configuration null model.

    Multiplicities count: the adjacency entry for a node pair is the number
    of parallel edges between them.
    """
    if graph.m == 0:
        raise GraphError("modularity undefined for a graph with no edges")
    check_cover(graph, partition)
    return modularity_numerator(graph, partition) / (4 * graph.m ** 2)


def nmi(a: Partition, b: Partition) -> float:
    """Normalized mutual information 2*I/(H(a)+H(b)) of two partitions.

    Natural-log entropies; the ratio is base-invariant. Two trivial
    single-block partitions compare as identical (NMI = 1). Terms are summed
    in node order, so equal partitions give bit-identical values.
    """
    if len(a) != len(b):
        raise GraphError("partitions cover different node sets")
    n = len(a)
    if n == 0:
        raise GraphError("empty partitions")
    count_a: Counter = Counter(a)
    count_b: Counter = Counter(b)
    joint: Counter = Counter(zip(a, b))

    def entropy(counts: Counter) -> float:
        return -sum((c / n) * math.log(c / n) for c in counts.values())

    h_a, h_b = entropy(count_a), entropy(count_b)
    if h_a + h_b == 0.0:
        return 1.0
    info = 0.0
    for (la, lb), c in joint.items():
        p = c / n
        info += p * math.log(p * n * n / (count_a[la] * count_b[lb]))
    return 2.0 * info / (h_a + h_b)


def split_disconnected(graph: ClassGraph, partition: Partition) -> Partition:
    """Replace each block by the connected components of its induced subgraph.

    Returns the labels in node order as a tuple. Components of a split block
    are named `label#k`, in order of their smallest node, each with the
    smallest k >= 1 that no label in use names; connected blocks keep their
    label. Idempotent.
    """
    check_cover(graph, partition)
    blocks: dict[Label, list[int]] = {}
    for node, label in enumerate(partition):
        blocks.setdefault(label, []).append(node)
    labels = list(partition)
    used = set(blocks)
    for label, block in blocks.items():
        members = set(block)
        inner = {u: [v for v in graph.neighbors(u) if v in members]
                 for u in block}
        parts = component_labels(inner, block)
        n_parts = max(parts.values()) + 1
        if n_parts > 1:
            names: list[str] = []
            suffix = 1
            while len(names) < n_parts:
                name = f"{label}#{suffix}"
                if name not in used:
                    names.append(name)
                    used.add(name)
                suffix += 1
            for node, idx in parts.items():
                labels[node] = names[idx]
    return tuple(labels)


def package_analysis(
    graph: ClassGraph,
    depth: int | None = None,
) -> tuple[Partition, Partition, list[str]]:
    """The package partition P, its split P+ (see `split_disconnected`) and
    the sorted labels of the packages that P+ splits."""
    packages = package_partition(graph, depth)
    packages_plus = split_disconnected(graph, packages)
    kept = {str(label) for label in packages_plus}
    disconnected = sorted(
        str(label) for label in set(packages) if str(label) not in kept
    )
    return packages, packages_plus, disconnected


def size_distribution(partition: Partition, xmin: int = 1) -> dict:
    """The report's record of the block sizes of a partition (a tuple of
    labels in node order): ``sizes`` (ascending), ``ccdf`` ([size, fraction
    of blocks >= size] pairs by ascending size), ``alpha`` (see
    `fit_power_law`, which raises GraphError for xmin < 1) and ``xmin``."""
    if not partition:
        raise GraphError("empty partition")
    sizes = sorted(Counter(partition).values())
    total = len(sizes)
    return {
        "sizes": sizes,
        "ccdf": [[s, sum(1 for t in sizes if t >= s) / total]
                 for s in sorted(set(sizes))],
        "alpha": fit_power_law(sizes, xmin),
        "xmin": xmin,
    }


def _hurwitz_zeta(s: float, a: int) -> float:
    """sum_{k>=a} k^-s via 64 direct terms plus an Euler-Maclaurin tail."""
    k_tail = a + 64
    head = sum(k ** -s for k in range(a, k_tail))
    tail = (k_tail ** (1.0 - s) / (s - 1.0)
            + 0.5 * k_tail ** -s
            + s / 12.0 * k_tail ** (-s - 1.0)
            - s * (s + 1.0) * (s + 2.0) / 720.0 * k_tail ** (-s - 3.0))
    return head + tail


_ALPHA_LO, _ALPHA_HI = 1.0 + 1e-6, 20.0


def fit_power_law(sizes, xmin: int = 1) -> float | None:
    """Maximum-likelihood exponent for P(s) ~ s^-alpha over sizes >= xmin.

    Maximizes the exact discrete (zeta-normalized) likelihood, which stays
    unbiased down to xmin = 1. Returns None (fit declined) with fewer than 3
    qualifying sizes or when the likelihood has no interior maximum (all
    sizes at xmin). Raises GraphError for xmin < 1.
    """
    if xmin < 1:
        raise GraphError(f"xmin must be >= 1, got {xmin}")
    qualifying = [s for s in sizes if s >= xmin]
    if len(qualifying) < 3:
        return None
    n = len(qualifying)
    log_sizes = sum(math.log(s) for s in qualifying)

    def log_likelihood(alpha: float) -> float:
        return -alpha * log_sizes - n * math.log(_hurwitz_zeta(alpha, xmin))

    lo, hi = _ALPHA_LO, _ALPHA_HI
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if log_likelihood(m1) < log_likelihood(m2):
            lo = m1
        else:
            hi = m2
        if hi - lo < 1e-9:
            break
    alpha = (lo + hi) / 2.0
    if alpha > _ALPHA_HI - 1e-3:
        return None  # degenerate: likelihood increases without bound
    return alpha


def _run_task(graph: ClassGraph, reference: Partition, algorithm: str,
              seed: int) -> tuple[object, list[tuple]]:
    """One seeded detection: its (Q, NMI, partition), or the exception it
    raised (a SizeCapError for a graph past the detector's size cap), with
    the (message, category, filename, lineno) of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if algorithm == "eb":
                partition, _ = detect.detect_eb(graph)
            elif algorithm == "mo":
                partition, dendrogram = detect.detect_mo(graph, seed)
            else:
                partition = detect.detect_lp(graph, seed)
            # MO's best level already holds Q: its exact numerator over
            # 4*m**2, the float `modularity` gives. With no edges Q is
            # undefined, and `modularity` raises that.
            q = dendrogram.best.q if algorithm == "mo" and graph.m \
                else modularity(graph, partition)
            outcome: object = (q, nmi(partition, reference), partition)
        except Exception as exc:
            outcome = exc
    return outcome, [(w.message, w.category, w.filename, w.lineno)
                     for w in caught]


def _batch_record(algorithm: str,
                  outcomes: list) -> tuple[dict, Partition | None]:
    if isinstance(outcomes[0], SizeCapError):  # a cap refuses every seed
        return {"skipped": str(outcomes[0])}, None
    q_values = [q for q, _, _ in outcomes]
    nmi_values = [value for _, value, _ in outcomes]
    mean_q = sum(q_values) / len(q_values)
    # The first run of maximal Q is the best.
    best = max(outcomes, key=lambda outcome: outcome[0])[2]
    return {
        "algorithm": algorithm,
        "runs": len(q_values),
        "q_values": q_values,
        "mean_q": mean_q,
        "max_q": max(q_values),
        "nmi_values": nmi_values,
        "peak_nmi": max(nmi_values),
        "significant": mean_q >= SIGNIFICANT_Q,
    }, best


def run_batch(
    graph: ClassGraph,
    algorithms: Sequence[str],
    runs: int,
    base_seed: int,
    reference: Partition,
) -> dict[str, tuple[dict, Partition | None]]:
    """Run `runs` seeded detections (seeds base, base+1, ...) of each named
    algorithm and aggregate them per algorithm. EB is deterministic and
    executes exactly once regardless of `runs`.

    Maps each algorithm to the report's batch record (``algorithm``,
    ``runs``, per-run ``q_values`` and ``nmi_values`` against `reference`,
    ``mean_q``, ``max_q``, ``peak_nmi`` and ``significant``) and the best-Q
    run's partition; a detector that refuses the graph's size gets the
    record ``{"skipped": reason}`` and no partition instead.

    The runs form one task list, in the order named, run by `fork_map` on
    min(runs, tasks, usable CPUs) processes. Whatever their count, the
    records, the re-emitted warnings of the runs and the first exception
    other than a SizeCapError (raised once every run has ended) follow it.
    """
    if runs < 1:
        raise GraphError("runs must be >= 1")
    for algorithm in algorithms:
        if algorithm not in ("eb", "mo", "lp"):
            raise GraphError(f"unknown algorithm {algorithm!r}")
    outcomes: dict[str, list] = {algorithm: [] for algorithm in algorithms}
    tasks = [(algorithm, seed) for algorithm in outcomes
             for seed in ([base_seed] if algorithm == "eb"
                          else range(base_seed, base_seed + runs))]
    ran = fork_map(lambda k: _run_task(graph, reference, *tasks[k]),
                   len(tasks), min(runs, usable_cpus()))
    # Re-emitted as if raised in depnet.detect, where the LP cap warns, and
    # only now that no run's catch_warnings can reset the registry that lets
    # the default filter print a repeated warning once.
    registry = vars(detect).setdefault("__warningregistry__", {})
    for (algorithm, _), (outcome, caught) in zip(tasks, ran):
        outcomes[algorithm].append(outcome)
        for warning in caught:
            warnings.warn_explicit(*warning, module=detect.__name__,
                                   registry=registry)
    for outcome, _ in ran:
        if isinstance(outcome, Exception) \
                and not isinstance(outcome, SizeCapError):
            raise outcome
    return {algorithm: _batch_record(algorithm, results)
            for algorithm, results in outcomes.items()}
