"""Assembly of the self-contained JSON analysis report.

Reports are deterministic for a fixed config and input: timestamps are only
emitted when SOURCE_DATE_EPOCH is set, and the input is identified by a
content digest instead of wall-clock provenance.
"""

from __future__ import annotations

import datetime
import json
import os

from .errors import DepnetError, GraphError
from .graph import ClassGraph
from .metrics import modularity, package_analysis, run_batch, size_distribution

_DISTRIBUTION_SCHEMA = {
    "type": "object",
    "required": ["sizes", "ccdf", "alpha", "xmin"],
    "properties": {
        "sizes": {"type": "array", "items": {"type": "integer"}},
        "ccdf": {"type": "array",
                 "items": {"type": "array", "minItems": 2, "maxItems": 2}},
        "alpha": {"type": ["number", "null"]},
        "xmin": {"type": "integer"},
    },
}

_BATCH_SCHEMA = {
    "type": "object",
    "required": ["algorithm", "runs", "q_values", "mean_q", "max_q",
                 "nmi_values", "peak_nmi", "significant"],
    "properties": {
        "algorithm": {"enum": ["eb", "mo", "lp"]},
        "runs": {"type": "integer", "minimum": 1},
        "q_values": {"type": "array", "items": {"type": "number"}},
        "mean_q": {"type": "number"},
        "max_q": {"type": "number"},
        "nmi_values": {"type": "array", "items": {"type": "number"}},
        "peak_nmi": {"type": "number"},
        "significant": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "network", "packages", "algorithms",
                 "size_distributions", "timestamp", "input_sha256"],
    "properties": {
        "config": {"type": "object"},
        "network": {
            "type": "object",
            "required": ["nodes", "edges", "packages"],
            "properties": {
                "nodes": {"type": "integer"},
                "edges": {"type": "integer"},
                "packages": {"type": "integer"},
            },
        },
        "packages": {
            "type": "object",
            "required": ["q", "q_plus", "blocks", "blocks_plus",
                         "disconnected_packages"],
            "properties": {
                "q": {"type": "number"},
                "q_plus": {"type": "number"},
                "blocks": {"type": "integer"},
                "blocks_plus": {"type": "integer"},
                "disconnected_packages": {"type": "array",
                                          "items": {"type": "string"}},
            },
        },
        "algorithms": {
            "type": "object",
            "additionalProperties": {
                "oneOf": [
                    _BATCH_SCHEMA,
                    {"type": "object", "required": ["skipped"],
                     "properties": {"skipped": {"type": "string"}}},
                ],
            },
        },
        "size_distributions": {
            "type": "object",
            "additionalProperties": _DISTRIBUTION_SCHEMA,
        },
        "timestamp": {"type": ["string", "null"]},
        "input_sha256": {"type": "string"},
    },
}


def _timestamp() -> str | None:
    """The UTC time that SOURCE_DATE_EPOCH gives in seconds, or None when it
    is unset; DepnetError unless it is an integer in the platform's range."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        moment = datetime.datetime.fromtimestamp(int(epoch),
                                                 tz=datetime.timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise DepnetError("SOURCE_DATE_EPOCH must be an integer time in the "
                          f"platform's range, got {epoch!r}") from None
    return moment.isoformat()


def build_report(graph: ClassGraph, config: dict, input_bytes: bytes) -> dict:
    """Run the full analysis (package metrics + all detectors) into one dict,
    with the settings `runs`, `eb_runs`, `seed`, `xmin` and `package_depth`
    read from `config`, which the report records.

    EB's one run and the seeded MO and LP runs share one `run_batch` call,
    and so its processes (see `fork_map`), which leave the bytes unchanged.
    A detector that refuses the graph's size is recorded as ``{"skipped":
    reason}``."""
    # Imported here: OpenSSL's _hashlib is slow to load and only this uses it.
    import hashlib

    # Both checks come before any detector runs.
    if min(config["runs"], config["eb_runs"]) < 1:
        raise GraphError("runs must be >= 1")
    timestamp = _timestamp()
    xmin = config["xmin"]
    packages, packages_plus, disconnected = \
        package_analysis(graph, config["package_depth"])

    algo_section: dict[str, dict] = {}
    distributions = {"packages": size_distribution(packages, xmin)}
    # EB first: its one long run then overlaps the seeded MO and LP runs.
    batches = run_batch(graph, ("eb", "mo", "lp"), config["runs"],
                        config["seed"], packages)
    for algo, (record, best) in batches.items():
        algo_section[algo] = record
        if best is not None:
            distributions[f"communities_{algo}"] = size_distribution(best, xmin)

    n_packages = len(set(packages))
    return {
        "config": config,
        "network": {
            "nodes": graph.n_nodes,
            "edges": graph.m,
            "packages": n_packages,
        },
        "packages": {
            "q": modularity(graph, packages),
            "q_plus": modularity(graph, packages_plus),
            "blocks": n_packages,
            "blocks_plus": len(set(packages_plus)),
            "disconnected_packages": disconnected,
        },
        "algorithms": algo_section,
        "size_distributions": distributions,
        "timestamp": timestamp,
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
    }


def dump_report(report: dict) -> str:
    """Canonical JSON serialization (byte-stable for identical reports)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
