"""Seeded generator of `.chd` class-header trees with an independent edge oracle.

The generator first draws a plan: every class, its package, and the exact list
of (kind, target) references it makes to other generated classes. It then
renders the plan as header source, burying those references among comments,
annotations, method bodies, generics, type parameters, primitives and
references to external types, none of which may produce an edge. From the same
plan it writes the edge TSV that `depnet extract` must produce, so the expected
edges never pass through depnet's own parser or resolver.

Stdlib only. `run.py` and `sweep.py` call `generate` with a `Shape`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

EDGE_HEADER = "#depnet-edges v1 isolated=drop\n"
WORDS = ("Order", "Cart", "Item", "Ledger", "Account", "Invoice", "Node",
         "Route", "Cache", "Store", "Parser", "Token", "Buffer", "Session",
         "Policy", "Rule", "Event", "Queue", "Worker", "Channel")
PRIMITIVES = ("int", "long", "boolean", "double", "char")
# External types, with the import each needs: none resolves to a generated
# class, and type arguments do not count without --type-args.
EXTERNAL_TYPES = (("String", None), ("Object", None), ("Logger", None),
                  ("List<{t}>", "java.util.List"),
                  ("Map<String, {t}>", "java.util.Map"),
                  ("java.util.Set<{t}>", None), ("java.io.File", None),
                  ("File[]", "java.io.File"),
                  ("java.util.Optional<? extends {t}>", None))
ANNOTATIONS = ("@Override", "@Deprecated", '@SuppressWarnings("unchecked")',
               '@gen.meta.Tagged(value = "hot", weight = 2)')


@dataclass(frozen=True)
class Shape:
    """Size and texture of a generated tree."""

    classes: int
    per_package: int = 20
    refs: int = 4            # references per class to other generated classes
    cross: float = 0.2       # share of those that leave the class's package
    external: float = 0.1    # share of all written references that are external
    noise: float = 0.5       # share of members with comments, annotations, bodies


@dataclass(frozen=True)
class Summary:
    files: int
    source_bytes: int
    edges: int


def _package(index: int) -> str:
    return f"gen.g{index // 8}.p{index}"


def _class_name(index: int) -> str:
    return f"{WORDS[index % len(WORDS)]}{index}"


def _homes(shape: Shape) -> list[int]:
    """Package index of each class; a lone last class joins the one before."""
    n, size = shape.classes, shape.per_package
    if size < 2 or n < 2 * size:
        raise ValueError("need at least two packages of two or more classes")
    home = [c // size for c in range(n)]
    if n % size == 1:
        home[-1] -= 1
    return home


def _plan(shape: Shape, home: list[int],
          rng: random.Random) -> list[list[tuple[str, int]]]:
    """Per class, its (kind, target class index) references; never to itself."""
    packages: list[list[int]] = [[] for _ in range(home[-1] + 1)]
    for c, p in enumerate(home):
        packages[p].append(c)
    plan = []
    for c in range(shape.classes):
        refs = []
        for k in range(shape.refs):
            if rng.random() < shape.cross:
                other = rng.randrange(len(packages) - 1)
                other += other >= home[c]
                target = rng.choice(packages[other])
            else:
                target = rng.choice([d for d in packages[home[c]] if d != c])
            if k == 0 and rng.random() < 0.4:
                kind = "inheritance"
            else:
                kind = rng.choice(("field", "parameter", "parameter", "return"))
            refs.append((kind, target))
        plan.append(refs)
    return plan


def _body(rng: random.Random, hint: str) -> str:
    """A method body that mentions types and punctuation but adds no edge."""
    lines = [
        f'        {hint} tmp = new {hint}(1, "a{{b}}; c(");',
        "        tmp.apply(this.count, 'x', 2.5);",
        "        if (ready) { tmp.flush(); }",
        "        /* done */ return;",
    ]
    rng.shuffle(lines)
    return " {\n" + "\n".join(lines[:rng.randint(1, 4)]) + "\n    }"


def _render(c: int, refs: list[tuple[str, int]], shape: Shape,
            home_pkg: list[str], rng: random.Random) -> str:
    """Source of one class; the edges it yields are exactly `refs`."""
    pkg, name = home_pkg[c], _class_name(c)
    is_interface = rng.random() < 0.15
    generic = rng.random() < 0.2
    imports: dict[str, None] = {}
    noisy = lambda: rng.random() < shape.noise  # noqa: E731

    def spell(target: int) -> str:
        if home_pkg[target] == pkg:
            return _class_name(target)
        fqn = f"{home_pkg[target]}.{_class_name(target)}"
        if rng.random() < 0.25:
            return fqn
        imports.setdefault(fqn, None)
        return _class_name(target)

    some_type = _class_name(refs[0][1]) if refs else "Object"
    supers, members = [], []
    counter = itertools.count()

    def member(text: str, has_body: bool) -> None:
        pre = []
        if noisy():
            pre.append(rng.choice(("    /** See {@link Helper} and List<T>. */",
                                   "    // cached; never null")))
        if noisy():
            pre.append("    " + rng.choice(ANNOTATIONS))
        body = _body(rng, some_type) if has_body and not is_interface else ";"
        members.append("\n".join(pre + [f"    {text}{body}"]))

    for kind, target in refs:
        t = spell(target)
        i = next(counter)
        if kind == "inheritance":
            supers.append(t)
        elif kind == "field":
            form = rng.randrange(3)
            if form == 0:
                member(f"private {t} f{i}", False)
            elif form == 1:
                member(f"protected {t}[] f{i}", False)
            else:
                members.append(f"    final {t} f{i} = new {t}(\"x\", 3);")
        elif kind == "parameter":
            if not is_interface and rng.random() < 0.3:
                member(f"public {name}({t} p{i}, int n)", True)
            else:
                tail = rng.choice((f"{t} p", f"{t}... p", f"{t}[] p"))
                member(f"public void m{i}(long a, {tail})", noisy())
        else:
            throws = " throws java.io.IOException, Fault" if noisy() else ""
            member(f"public {t} m{i}(){throws}", noisy())

    expected = len(refs) * shape.external / (1.0 - shape.external)
    n_external = int(expected) + (rng.random() < expected % 1.0)
    for _ in range(n_external):
        ext, needs = rng.choice(EXTERNAL_TYPES)
        if needs:
            imports.setdefault(needs, None)
        member(f"private {ext.format(t=some_type)} x{next(counter)}", False)
    member(f"public {rng.choice(PRIMITIVES)} size{next(counter)}()", True)
    if generic:
        member(f"T value{next(counter)}", False)
        member(f"public <E> E pick{next(counter)}(List<E> xs, T seed)", False)
        imports.setdefault("java.util.List", None)
    rng.shuffle(members)

    head = []
    if noisy():
        head.append(f"/*\n * {name}: generated header.\n */")
    head.append(f"package {pkg};\n")
    head.extend(f"import {imp};" for imp in imports)
    params = f"<T extends {some_type}>" if generic else ""
    if is_interface:
        decl = f"public interface {name}{params}"
        if supers:
            decl += " extends " + ", ".join(supers)
    else:
        decl = f"public class {name}{params}"
        if supers:
            decl += f" extends {supers[0]}"
        if len(supers) > 1:
            decl += " implements " + ", ".join(supers[1:])
    if noisy():
        head.append(rng.choice(ANNOTATIONS))
    return ("\n".join(head) + f"\n{decl} {{\n" + "\n\n".join(members)
            + "\n}\n")


def generate(out_dir: Path, seed: int, shape: Shape) -> Summary:
    """Write OUT_DIR/src/**.chd and OUT_DIR/expected_edges.tsv for a seed."""
    rng = random.Random(seed)
    home = _homes(shape)
    plan = _plan(shape, home, rng)
    n = shape.classes
    home_pkg = [_package(p) for p in home]
    fqns = [f"{home_pkg[c]}.{_class_name(c)}" for c in range(n)]

    src = out_dir / "src"
    total = 0
    for c in range(n):
        text = _render(c, plan[c], shape, home_pkg, rng)
        path = src.joinpath(*home_pkg[c].split("."), f"{_class_name(c)}.chd")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        total += len(text.encode("utf-8"))

    lines = []
    for c, refs in enumerate(plan):
        for kind, target in refs:
            a, b = sorted((fqns[c], fqns[target]))
            lines.append(f"{a}\t{b}\t{kind}\n")
    lines.sort()
    with open(out_dir / "expected_edges.tsv", "w", encoding="utf-8",
              newline="\n") as stream:
        stream.write(EDGE_HEADER)
        stream.writelines(lines)
    return Summary(files=n, source_bytes=total, edges=len(lines))
