"""Resolution of parsed headers into dependency tuples, plus interchange I/O.

A dependency is a (source fqn, target fqn, kind) tuple, its kind one of the
tokens in KINDS. Only this module knows the kinds: a graph keeps none.

File formats:
  * edge TSV: header "#depnet-edges v1 isolated=keep|drop", then
    "source_fqn<TAB>target_fqn<TAB>kind" per edge;
  * partition TSV: "fqn<TAB>label" per node, sorted by fqn.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import FormatError, GraphError, ResolveError
from .graph import ClassGraph, Partition, build_graph, remove_isolated

if TYPE_CHECKING:
    from .headers import ClassDecl

EDGE_HEADER_PREFIX = "#depnet-edges v1 isolated="

# The kinds of dependency, as an edge file names them.
KINDS = ("inheritance", "field", "parameter", "return")

Dependency = tuple[str, str, str]


class ResolveOptions(NamedTuple):
    keep_external: bool = False
    include_type_arguments: bool = False
    include_constructors: bool = True


def _import_map(decl: ClassDecl) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for imp in dict.fromkeys(decl.imports):
        simple = imp.rsplit(".", 1)[-1]
        if simple in mapping and mapping[simple] != imp:
            raise ResolveError(
                f"ambiguous import of {simple!r} in {decl.fqn}: "
                f"{mapping[simple]} vs {imp}"
            )
        mapping[simple] = imp
    return mapping


def _shared_prefix_len(a: str, b: str) -> int:
    count = 0
    for x, y in zip(a.split("."), b.split(".")):
        if x != y:
            break
        count += 1
    return count


def resolve_dependencies(
    decls: Sequence[ClassDecl],
    opts: ResolveOptions = ResolveOptions(),
) -> tuple[list[str], list[Dependency]]:
    """Resolve type references by precedence: explicit import > same package.

    Unresolved references are dropped, or kept as external nodes when
    opts.keep_external is set. One dependency tuple is emitted per occurrence.
    """
    if not decls:
        raise ResolveError("no class declarations to resolve")
    by_fqn: dict[str, ClassDecl] = {}
    for decl in decls:
        if decl.fqn in by_fqn:
            raise ResolveError(f"duplicate class {decl.fqn!r}")
        by_fqn[decl.fqn] = decl
    # Same-package candidates per (package, simple name), in declaration order.
    by_package: dict[tuple[str, str], list[ClassDecl]] = {}
    for decl in decls:
        by_package.setdefault((decl.package, decl.simple_name), []).append(decl)

    externals: dict[str, None] = {}

    def resolve(name: str, decl: ClassDecl, imports: dict[str, str]) -> str:
        if "." in name:
            return name  # qualified: exact match or external as written
        if name in imports:
            return imports[name]  # may itself be external
        same_pkg = by_package.get((decl.package, name), ())
        if len(same_pkg) == 1:
            return same_pkg[0].fqn
        if len(same_pkg) > 1:
            best = sorted(
                same_pkg,
                key=lambda d: -_shared_prefix_len(d.fqn, decl.fqn),
            )
            lead = _shared_prefix_len(best[0].fqn, decl.fqn)
            if _shared_prefix_len(best[1].fqn, decl.fqn) == lead:
                raise ResolveError(
                    f"ambiguous reference {name!r} from {decl.fqn}"
                )
            return best[0].fqn
        return name  # unresolved simple name

    dependencies: list[Dependency] = []
    for decl in decls:
        imports = _import_map(decl)
        param_refs = list(decl.param_types)
        if opts.include_constructors:
            param_refs.extend(decl.ctor_param_types)
        buckets = (decl.supertypes, decl.field_types, param_refs,
                   decl.return_types)
        for kind, refs in zip(KINDS, buckets):
            for ref in refs:
                for name in ref.flatten(opts.include_type_arguments):
                    target = resolve(name, decl, imports)
                    if target not in by_fqn:
                        if not opts.keep_external:
                            continue
                        externals.setdefault(target, None)
                    dependencies.append((decl.fqn, target, kind))

    class_fqns = sorted(by_fqn) + sorted(externals)
    return class_fqns, dependencies


def parse_corpus(
    sources: Iterable[tuple[str, str]],
    opts: ResolveOptions = ResolveOptions(),
) -> tuple[list[str], list[Dependency]]:
    """Parse (filename, text) pairs and resolve the merged declaration table."""
    # Imported here: an edge file is loaded without the header parser.
    from .headers import parse_class_headers

    decls: list[ClassDecl] = []
    for filename, text in sources:
        decls.extend(parse_class_headers(text, filename))
    return resolve_dependencies(decls, opts)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 input file; FormatError names a file that is
    not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def load_edge_list(stream: IO[str]) -> ClassGraph:
    """Read the edge TSV format and build the multigraph."""
    header = stream.readline().rstrip("\n")
    if not header.startswith(EDGE_HEADER_PREFIX):
        raise FormatError(f"bad edge-file header: {header!r}")
    isolated = header[len(EDGE_HEADER_PREFIX):]
    if isolated not in ("keep", "drop"):
        raise FormatError(f"bad isolated flag {isolated!r} in edge-file header")
    fqns: dict[str, None] = {}
    raw_edges: list[Dependency] = []
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 3 tab-separated fields")
        src, dst, kind = parts
        if kind not in KINDS:
            raise FormatError(
                f"line {lineno}: unknown dependency kind {kind!r}"
            )
        fqns.setdefault(src, None)
        fqns.setdefault(dst, None)
        raw_edges.append((src, dst, kind))
    if not fqns:
        raise FormatError("edge file contains no edges")
    graph = build_graph(sorted(fqns), raw_edges)
    if isolated == "drop":
        graph = remove_isolated(graph)
    return graph


def write_edge_list(dependencies: Iterable[Dependency],
                    stream: IO[str]) -> None:
    """Write the edge TSV format with isolated=drop, the only flag a file of
    edges can honour: a line per dependency, its two fqns in order, and
    none for a self-reference, which `build_graph` drops too; lines sorted
    for byte-stable output."""
    stream.write(f"{EDGE_HEADER_PREFIX}drop\n")
    stream.writelines(sorted(
        f"{min(src, dst)}\t{max(src, dst)}\t{kind}\n"
        for src, dst, kind in dependencies if src != dst))


def package_partition(graph: ClassGraph, depth: int | None = None) -> Partition:
    """Label each node with its package, '(default)' when its fqn has none;
    a depth keeps only the package's first `depth` segments."""
    if depth is not None and depth < 1:
        raise GraphError(f"package depth must be >= 1, got {depth}")
    labels = []
    for fqn in graph.fqns:
        segments = fqn.split(".")[:-1][:depth]
        labels.append(".".join(segments) if segments else "(default)")
    return tuple(labels)


def load_partition(stream: IO[str], graph: ClassGraph) -> Partition:
    """Read a partition TSV against a graph's fqn table.

    Every fqn must be a node of the graph and appear on exactly one line.
    """
    labels: list[str | None] = [None] * graph.n_nodes
    index = {fqn: i for i, fqn in enumerate(graph.fqns)}
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 2 tab-separated fields")
        fqn, label = parts
        node = index.get(fqn)
        if node is None:
            raise FormatError(f"line {lineno}: unknown class {fqn!r}")
        if node in first_line:
            raise FormatError(
                f"line {lineno}: duplicate class {fqn!r} "
                f"(first on line {first_line[node]})"
            )
        first_line[node] = lineno
        labels[node] = label
    if len(first_line) != graph.n_nodes:
        raise FormatError(
            f"partition covers {len(first_line)} of {graph.n_nodes} nodes"
        )
    return tuple(labels)


def write_partition(partition: Partition, graph: ClassGraph, stream: IO[str]) -> None:
    """Write a partition TSV sorted by fqn."""
    for fqn, label in sorted(zip(graph.fqns, map(str, partition))):
        stream.write(f"{fqn}\t{label}\n")
