"""Command-line driver: extraction, detection, metrics, refinement, export.

Exit status: 0 on success, 1 on usage/config errors, 2 on data errors.

Each command imports the layers it runs inside its body, so that start-up
loads only click and this module, and `report` on an edge file never loads
the header parser.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import EXPORT_FORMATS
from .errors import DepnetError, SizeCapError

if TYPE_CHECKING:
    from .graph import ClassGraph, Partition

DEFAULT_RUNS = 100
DEFAULT_EB_RUNS = 10
DEFAULT_SEED = 42


def _collect_sources(inputs: tuple[str, ...]) -> list[tuple[str, str]]:
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

    return load_edge_list(io.StringIO(read_text(network)))


def _load_partition(path: str, graph: ClassGraph) -> Partition:
    from .ingest import load_partition, read_text

    return load_partition(io.StringIO(read_text(path)), graph)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _extract_graph(inputs: tuple[str, ...], keep_external: bool,
                   type_args: bool) -> tuple[ClassGraph, list[tuple[str, str]]]:
    """The dependency graph of the .chd sources, without isolated nodes,
    and the (path, text) sources it was built from."""
    from .graph import build_graph, remove_isolated
    from .ingest import ResolveOptions, parse_corpus

    sources = _collect_sources(inputs)
    opts = ResolveOptions(keep_external=keep_external,
                          include_type_arguments=type_args)
    fqns, deps = parse_corpus(sources, opts)
    return remove_isolated(build_graph(fqns, deps)), sources


@click.group()
def cli() -> None:
    """Class dependency networks: build, detect communities, measure, export."""


@cli.command("extract")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", required=True, help="Output edge TSV path.")
@click.option("--keep-external", is_flag=True,
              help="Keep unresolved type references as external nodes.")
@click.option("--type-args", is_flag=True,
              help="Also emit dependencies on generic type arguments.")
@click.option("--package-depth", type=int, default=None,
              help="Truncate packages to this many segments when counting |P|.")
def cmd_extract(inputs, out, keep_external, type_args, package_depth):
    """Parse .chd header sources into an edge TSV network file."""
    from .ingest import package_partition, write_edge_list

    graph, _ = _extract_graph(inputs, keep_external, type_args)
    packages = package_partition(graph, package_depth)
    if graph.n_nodes == 0:
        click.echo("warning: all nodes isolated; wrote an empty edge file",
                   err=True)
    with open(out, "w", encoding="utf-8") as stream:
        write_edge_list(graph, stream)
    click.echo(f"nodes={graph.n_nodes} edges={graph.m} "
               f"packages={len(set(packages))}")


@cli.command("detect")
@click.argument("network")
@click.option("--algo", type=click.Choice(["eb", "mo", "lp"]), required=True)
@click.option("--runs", type=int, default=DEFAULT_RUNS, show_default=True,
              help="Seeded runs. EB is deterministic and runs once, so for "
                   "eb this must only be >= 1.")
@click.option("--seed", type=int, default=DEFAULT_SEED, envvar="DEPNET_SEED",
              show_default=True)
@click.option("--package-depth", type=int, default=None)
@click.option("--out", default=None, help="Partition TSV output path.")
def cmd_detect(network, algo, runs, seed, package_depth, out):
    """Run one detection algorithm; write the best-Q partition and stats."""
    from .ingest import package_partition, write_partition
    from .metrics import run_batch

    graph = _load_graph(network)
    reference = package_partition(graph, package_depth)
    record, best = run_batch(graph, (algo,), runs, seed, reference)[algo]
    if best is None:
        raise SizeCapError(record["skipped"])
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            write_partition(best, graph, stream)
    click.echo(json.dumps(record, indent=2, sort_keys=True))


@cli.command("metrics")
@click.argument("network")
@click.argument("partitions", nargs=-1)
@click.option("--xmin", type=int, default=1, show_default=True)
@click.option("--package-depth", type=int, default=None)
@click.option("--out", default=None)
def cmd_metrics(network, partitions, xmin, package_depth, out):
    """Package metrics plus NMI between every pair of supplied partitions.

    Each partition is named by its file basename; names must be distinct
    and must not be 'P' or 'P+'.
    """
    from .metrics import modularity, nmi, package_analysis, size_distribution

    graph = _load_graph(network)
    packages, packages_plus, disconnected = package_analysis(graph, package_depth)
    named = {"P": packages, "P+": packages_plus}
    for path in partitions:
        name = Path(path).name
        if name in named:
            raise DepnetError(
                f"{path}: partitions are named by file basename and {name!r} "
                "is already taken ('P' and 'P+' are the package partitions)"
            )
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


@cli.command("refine")
@click.argument("network")
@click.option("--seed", type=int, default=DEFAULT_SEED, envvar="DEPNET_SEED",
              show_default=True)
@click.option("--package-depth", type=int, default=None)
@click.option("--out", default=None, help="Refined partition TSV output path.")
def cmd_refine(network, seed, package_depth, out):
    """Refine the package partition by constrained label propagation."""
    from .detect import refine_packages
    from .ingest import write_partition
    from .metrics import modularity, nmi, package_analysis

    graph = _load_graph(network)
    packages, packages_plus, _ = package_analysis(graph, package_depth)
    refined = refine_packages(graph, packages_plus, seed)
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            write_partition(refined, graph, stream)
    doc = {
        "q_packages": modularity(graph, packages),
        "q_packages_plus": modularity(graph, packages_plus),
        "q_refined": modularity(graph, refined),
        "nmi_refined_vs_packages": nmi(refined, packages),
        "labels": sorted(str(lbl) for lbl in set(refined)),
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


@cli.command("abstract")
@click.argument("network")
@click.argument("partition")
@click.option("--format", "fmt", type=click.Choice(EXPORT_FORMATS),
              default="json", show_default=True)
@click.option("--components", type=int, default=None,
              help="Keep only the K largest connected components.")
@click.option("--package-depth", type=int, default=None)
@click.option("--out", default=None)
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


@cli.command("report")
@click.argument("source")
@click.option("--runs", type=int, default=DEFAULT_RUNS, show_default=True)
@click.option("--eb-runs", type=int, default=DEFAULT_EB_RUNS, show_default=True,
              help="Recorded in the report's config. EB is deterministic and "
                   "runs once, so this must only be >= 1.")
@click.option("--seed", type=int, default=DEFAULT_SEED, envvar="DEPNET_SEED",
              show_default=True)
@click.option("--xmin", type=int, default=1, show_default=True)
@click.option("--package-depth", type=int, default=None)
@click.option("--keep-external", is_flag=True)
@click.option("--type-args", is_flag=True)
@click.option("--out", default=None)
def cmd_report(source, runs, eb_runs, seed, xmin, package_depth,
               keep_external, type_args, out):
    """Full analysis document: metrics plus all detection algorithms.

    SOURCE may be an edge TSV file or a directory of .chd header sources.
    """
    from .report import build_report, dump_report

    path = Path(source)
    if path.is_dir():
        graph, sources = _extract_graph((source,), keep_external, type_args)
        input_bytes = b"".join(text.encode() for _, text in sources)
    else:
        input_bytes = path.read_bytes()
        graph = _load_graph(source)
    config = {
        "source": str(source),
        "runs": runs,
        "eb_runs": eb_runs,
        "seed": seed,
        "xmin": xmin,
        "package_depth": package_depth,
        "keep_external": keep_external,
        "type_args": type_args,
    }
    _emit(dump_report(build_report(graph, config, input_bytes)), out)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except (DepnetError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
