"""Command-line driver: extraction, detection, metrics, refinement, export.

Exit status: 0 on success (`--help` included), 1 on a usage error, 2 on a
data error. A usage error prints one `error:` line and the usage to stderr.
`DEPNET_SEED`, when set, is the default `--seed`.

Input files are read only by `ingest.read_text` and output files written
only by `_emit`; an empty `--out` is a usage error.

The command line needs only the standard library. Each command imports the
layers it runs inside its body, so that start-up loads only argparse and
this module, and `report` on an edge file never loads the header parser.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import EXPORT_FORMATS
from .errors import DepnetError, SizeCapError

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .graph import ClassGraph, Partition
    from .ingest import Dependency

DEFAULT_RUNS = 100
DEFAULT_EB_RUNS = 10
DEFAULT_SEED = 42


def _collect_sources(inputs: Sequence[str]) -> list[tuple[str, str]]:
    from .ingest import read_text

    paths: list[Path] = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            paths.extend(sorted(path.rglob("*.chd")))
        else:
            paths.append(path)
    if not paths:
        raise DepnetError("no input classes")
    return [(str(p), read_text(p)) for p in paths]


def _load_graph(network: str) -> ClassGraph:
    from .ingest import load_edge_list, read_text

    return load_edge_list(read_text(network))


def _load_partition(path: str, graph: ClassGraph) -> Partition:
    from .ingest import load_partition, read_text

    return load_partition(read_text(path), graph)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _extract_graph(
    inputs: Sequence[str], keep_external: bool, type_args: bool,
) -> tuple[ClassGraph, list[Dependency], list[tuple[str, str]]]:
    """The dependency graph of the .chd sources, without isolated nodes,
    the dependencies it was built from, and their (path, text) sources."""
    from .graph import build_graph, remove_isolated
    from .ingest import ResolveOptions, parse_corpus

    sources = _collect_sources(inputs)
    opts = ResolveOptions(keep_external=keep_external,
                          include_type_arguments=type_args)
    fqns, deps = parse_corpus(sources, opts)
    return remove_isolated(build_graph(fqns, deps)), deps, sources


def cmd_extract(inputs, out, keep_external, type_args, package_depth):
    """Parse .chd header sources into an edge TSV network file."""
    from .ingest import package_partition, write_edge_list

    graph, deps, _ = _extract_graph(inputs, keep_external, type_args)
    packages = package_partition(graph, package_depth)
    if graph.n_nodes == 0:
        sys.stderr.write("warning: all nodes isolated; wrote an empty edge file\n")
    _emit(write_edge_list(deps), out)
    sys.stdout.write(f"nodes={graph.n_nodes} edges={graph.m} "
                     f"packages={len(set(packages))}\n")


def cmd_detect(network, algo, runs, seed, package_depth, out):
    """Run one detection algorithm; write the best-Q partition and stats."""
    import json

    from .ingest import package_partition, write_partition
    from .metrics import run_batch

    graph = _load_graph(network)
    reference = package_partition(graph, package_depth)
    record, best = run_batch(graph, (algo,), runs, seed, reference)[algo]
    if best is None:
        raise SizeCapError(record["skipped"])
    if out:
        _emit(write_partition(best, graph), out)
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def cmd_metrics(network, partitions, xmin, package_depth, out):
    """Package metrics plus NMI between every pair of supplied partitions.

    Each partition is named by its file basename; names must be distinct
    and must not be 'P' or 'P+'.
    """
    import json

    from .metrics import modularity, nmi, package_analysis, size_distribution

    graph = _load_graph(network)
    packages, packages_plus, disconnected = package_analysis(graph, package_depth)
    named = {"P": packages, "P+": packages_plus}
    taken = dict.fromkeys(named, "('P' and 'P+' are the package partitions)")
    for path in partitions:
        name = Path(path).name
        if name in taken:
            raise DepnetError(f"{path}: partitions are named by file basename "
                              f"and {name!r} is already taken {taken[name]}")
        taken[name] = f"by {path}"
        named[name] = _load_partition(path, graph)
    pairs = sorted(named)
    doc = {
        "network": {"nodes": graph.n_nodes, "edges": graph.m,
                    "packages": len(set(packages))},
        "q": {name: modularity(graph, part) for name, part in named.items()},
        "nmi": {
            f"{a}|{b}": nmi(named[a], named[b])
            for i, a in enumerate(pairs) for b in pairs[i + 1:]
        },
        "size_distributions": {
            name: size_distribution(part, xmin)
            for name, part in named.items()
        },
        "disconnected_packages": disconnected,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def cmd_refine(network, seed, package_depth, out):
    """Refine the package partition by constrained label propagation."""
    import json

    from .detect import refine_packages
    from .ingest import write_partition
    from .metrics import modularity, nmi, package_analysis

    graph = _load_graph(network)
    packages, packages_plus, _ = package_analysis(graph, package_depth)
    refined = refine_packages(graph, packages_plus, seed)
    if out:
        _emit(write_partition(refined, graph), out)
    doc = {
        "q_packages": modularity(graph, packages),
        "q_packages_plus": modularity(graph, packages_plus),
        "q_refined": modularity(graph, refined),
        "nmi_refined_vs_packages": nmi(refined, packages),
        "labels": sorted(str(lbl) for lbl in set(refined)),
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_abstract(network, partition, fmt, components, package_depth, out):
    """Export the community-abstraction network for a stored partition."""
    from .abstract import community_network, export, largest_components_filter
    from .ingest import package_partition

    graph = _load_graph(network)
    part = _load_partition(partition, graph)
    packages = package_partition(graph, package_depth)
    cgraph = community_network(graph, part, packages)
    if components is not None:
        cgraph = largest_components_filter(cgraph, components)
    _emit(export(cgraph, fmt), out)


def cmd_report(out, **config):
    """Full analysis document: metrics plus all detection algorithms.

    The source may be an edge TSV file or a directory of .chd header sources.
    The report's config records every option but --out.
    """
    from .ingest import load_edge_list, read_text
    from .report import build_report, dump_report

    source = config["source"]
    if Path(source).is_dir():
        graph, _, sources = _extract_graph(
            (source,), config["keep_external"], config["type_args"])
        text = "".join(source_text for _, source_text in sources)
    else:
        text = read_text(source)
        graph = load_edge_list(text)
    _emit(dump_report(build_report(graph, config, text.encode())), out)


def _out_path(value: str) -> str:
    """An `--out` value; an empty one, most likely an unset shell variable,
    is a usage error rather than stdout or no output."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option, offers `--help` alone,
    and exits with status 1 on a usage error."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message: str):
        # argparse exits with status 2, which depnet keeps for data errors.
        self.exit(1, f"error: {message}\n{self.format_usage()}")


def _parser() -> argparse.ArgumentParser:
    """The `depnet` command line, built per call so that `DEPNET_SEED` is
    read when the arguments are parsed."""
    parser = _Parser(prog="depnet", description=(
        "Class dependency networks: build, detect communities, measure, "
        "export."))
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        doc = run.__doc__ or ""  # None under python -OO
        sub = commands.add_parser(name, help=doc.partition("\n")[0],
                                  description=doc)
        sub.set_defaults(run=run)
        return sub

    def int_option(sub, flag, default=None, text=None):
        if default is not None:
            text = f"{text or ''} (default: %(default)s)".lstrip()
        sub.add_argument(flag, type=int, default=default, help=text)

    def out_option(sub, text=None, required=False):
        sub.add_argument("--out", type=_out_path, required=required,
                         help=text)

    def seed_option(sub):
        sub.add_argument("--seed", type=int,
                         default=os.environ.get("DEPNET_SEED") or DEFAULT_SEED,
                         help="(default: %(default)s, or DEPNET_SEED)")

    sub = command("extract", cmd_extract)
    sub.add_argument("inputs", nargs="+")
    out_option(sub, "Output edge TSV path.", required=True)
    sub.add_argument("--keep-external", action="store_true",
                     help="Keep unresolved type references as external nodes.")
    sub.add_argument("--type-args", action="store_true",
                     help="Also emit dependencies on generic type arguments.")
    int_option(sub, "--package-depth", text=(
        "Truncate packages to this many segments when counting |P|."))

    sub = command("detect", cmd_detect)
    sub.add_argument("network")
    sub.add_argument("--algo", choices=("eb", "mo", "lp"), required=True)
    int_option(sub, "--runs", DEFAULT_RUNS, text=(
        "Seeded runs. EB is deterministic and runs once, so for eb this "
        "must only be >= 1."))
    seed_option(sub)
    int_option(sub, "--package-depth")
    out_option(sub, "Partition TSV output path.")

    sub = command("metrics", cmd_metrics)
    sub.add_argument("network")
    sub.add_argument("partitions", nargs="*")
    int_option(sub, "--xmin", 1)
    int_option(sub, "--package-depth")
    out_option(sub)

    sub = command("refine", cmd_refine)
    sub.add_argument("network")
    seed_option(sub)
    int_option(sub, "--package-depth")
    out_option(sub, "Refined partition TSV output path.")

    sub = command("abstract", cmd_abstract)
    sub.add_argument("network")
    sub.add_argument("partition")
    sub.add_argument("--format", dest="fmt", choices=EXPORT_FORMATS,
                     default="json", help="(default: %(default)s)")
    int_option(sub, "--components",
               text="Keep only the K largest connected components.")
    int_option(sub, "--package-depth")
    out_option(sub)

    sub = command("report", cmd_report)
    sub.add_argument("source")
    int_option(sub, "--runs", DEFAULT_RUNS)
    int_option(sub, "--eb-runs", DEFAULT_EB_RUNS, text=(
        "Recorded in the report's config. EB is deterministic and runs "
        "once, so this must only be >= 1."))
    seed_option(sub)
    int_option(sub, "--xmin", 1)
    int_option(sub, "--package-depth")
    sub.add_argument("--keep-external", action="store_true")
    sub.add_argument("--type-args", action="store_true")
    out_option(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command that `argv` (default: `sys.argv[1:]`) names and
    return its exit status."""
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:  # after --help (0) or a usage error (1)
        return exc.code
    run = args.pop("run")
    try:
        run(**args)
    except (DepnetError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
