"""Resolution of parsed headers into dependencies, and the interchange texts.

A dependency is a (source fqn, target fqn, kind) tuple, its kind one of the
tokens in KINDS. Only this module knows the kinds: a graph keeps none.

File formats:
  * edge TSV: header "#depnet-edges v1 isolated=keep|drop", then
    "source_fqn<TAB>target_fqn<TAB>kind" per edge;
  * partition TSV: "fqn<TAB>label" per node, sorted by fqn.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import FormatError, GraphError, ResolveError
from .graph import ClassGraph, Partition, build_graph, remove_isolated
from .workers import fork_map, usable_cpus

if TYPE_CHECKING:
    from .headers import ClassDecl

EDGE_HEADER_PREFIX = "#depnet-edges v1 isolated="

# The kinds of dependency, as an edge file names them.
KINDS = ("inheritance", "field", "parameter", "return")
# The least source text, in characters, worth a forked share of
# `parse_corpus`: below about twice this, forking costs more than it saves.
MIN_SHARE_CHARS = 64 * 1024

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

    # One sorted order over classes and externals alike, the order in which
    # `load_edge_list` reads the same nodes back.
    return sorted({**by_fqn, **externals}), dependencies


def parse_corpus(
    sources: Iterable[tuple[str, str]],
    opts: ResolveOptions = ResolveOptions(),
) -> tuple[list[str], list[Dependency]]:
    """Parse (filename, text) pairs and resolve the merged declaration table.

    The sources are split into contiguous shares of about equal text
    length, min(usable CPUs, files, total characters // MIN_SHARE_CHARS)
    of them and at least one, parsed by `fork_map` on as many processes,
    this one parsing a share itself with nothing to pickle. Merged in share
    order, the table is the same for any share count, and the first error
    in share order is raised, as parsing the files in turn would raise it.
    """
    # Imported here: an edge file is loaded without the header parser.
    from .headers import parse_class_headers

    sources = list(sources)
    ends = list(accumulate(len(text) for _, text in sources))
    total = ends[-1] if ends else 0
    count = max(1, min(usable_cpus(), len(sources), total // MIN_SHARE_CHARS))
    # Share k ends after the file whose text crosses k/count of the total,
    # leaving at least one file to each share.
    cuts = [0]
    for k in range(1, count):
        cut = bisect_left(ends, total * k / count) + 1
        cuts.append(min(max(cut, cuts[-1] + 1), len(sources) - (count - k)))
    cuts.append(len(sources))

    def parse_share(k: int) -> list[ClassDecl]:
        return [decl for filename, text in sources[cuts[k]:cuts[k + 1]]
                for decl in parse_class_headers(text, filename)]

    decls: list[ClassDecl] = []
    for outcome in fork_map(parse_share, count, count):
        if isinstance(outcome, Exception):
            raise outcome
        decls.extend(outcome)
    return resolve_dependencies(decls, opts)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 input file, without one leading byte-order mark
    and with each CRLF and lone CR line end made LF as a text-mode read
    makes them; FormatError names a file that is not UTF-8."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_edge_list(text: str) -> ClassGraph:
    """Build the multigraph of an edge TSV file's text."""
    header, _, body = text.partition("\n")
    if not header.startswith(EDGE_HEADER_PREFIX):
        raise FormatError(f"bad edge-file header: {header!r}")
    isolated = header[len(EDGE_HEADER_PREFIX):]
    if isolated not in ("keep", "drop"):
        raise FormatError(f"bad isolated flag {isolated!r} in edge-file header")
    fqns: dict[str, None] = {}
    raw_edges: list[Dependency] = []
    for lineno, line in enumerate(body.split("\n"), start=2):
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


def write_edge_list(dependencies: Iterable[Dependency]) -> str:
    """The edge TSV text, with isolated=drop, the only flag a file of edges
    can honour: a line per dependency, its two fqns in order, and none for
    a self-reference, which `build_graph` drops too; lines sorted for
    byte-stable output."""
    return f"{EDGE_HEADER_PREFIX}drop\n" + "".join(sorted(
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


def load_partition(text: str, graph: ClassGraph) -> Partition:
    """Read a partition TSV file's text against a graph's fqn table.

    Every fqn must be a node of the graph and appear on exactly one line.
    """
    labels: list[str | None] = [None] * graph.n_nodes
    index = {fqn: i for i, fqn in enumerate(graph.fqns)}
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
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


def write_partition(partition: Partition, graph: ClassGraph) -> str:
    """The partition TSV text, sorted by fqn."""
    rows = sorted(zip(graph.fqns, map(str, partition)))
    return "".join(f"{fqn}\t{label}\n" for fqn, label in rows)
