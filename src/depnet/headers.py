"""Lexer and recursive-descent parser for class-header source (.chd files).

The accepted language is a Java-like header subset: package declaration,
imports, class/interface declarations with extends/implements clauses, field
declarations and method signatures. Modifiers, annotations and throws clauses
are skipped; method bodies and field initializers are ignored when present.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

MODIFIERS = frozenset({
    "public", "protected", "private", "static", "final", "abstract",
    "synchronized", "native", "transient", "volatile", "strictfp", "default",
})
PRIMITIVES = frozenset({
    "int", "long", "short", "byte", "char", "boolean", "float", "double",
})
KEYWORDS = frozenset({"package", "import", "class", "interface",
                      "extends", "implements", "throws", "void"})
# Levels of generic arguments, wildcard and type-parameter bounds and nested
# classes, counted together; the parser recurses once per level.
MAX_NESTING = 100

# One match per token: comments and the whitespace " \t\r\n" are skipped
# first, then one of the groups below is taken. A match with no group is the
# end of input or a lexical error. On str, [\w$] is exactly
# `ch.isalnum() or ch in "_$"`. Literals are escape-aware, so a backslash
# can never step past the end of the input.
_LITERAL = r"""( "[^"\\]*(?:\\.[^"\\]*)*" | '[^'\\]*(?:\\.[^'\\]*)*' )"""
_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?: ([\w$]+)                                 # 1: word
      | (\.\.\. | [{}()<>\[\];,.=?&])           # 2: punctuation
      | """ + _LITERAL + r"""                  # 3: string or char literal
      | (@)                                      # 4: annotation
    )?""", re.VERBOSE | re.DOTALL)
_DOTTED = re.compile(r"[\w$.]*")  # a numeric literal or an annotation name
# In annotation arguments: a parenthesis, a literal (group 1) taken whole so
# that the parentheses inside it are not counted, or a quote that starts no
# complete literal (group 2).
_ANNOTATION_ATOM = re.compile(r"[()] | " + _LITERAL + r""" | (["'])""",
                              re.VERBOSE | re.DOTALL)


def position(source: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset pos; only "\\n" ends a line."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _is_identifier(text: str) -> bool:
    """True for an identifier token: its text starts with a letter, _ or $."""
    return text[:1].isalpha() or text[:1] in ("_", "$")


class TypeRef(NamedTuple):
    """A source type reference: possibly qualified base name plus type arguments.

    Array dimensions decay to the element type at parse time. References to
    void, a primitive or a type variable in scope are never stored on a
    ClassDecl, at any depth of type arguments.
    """

    name: str
    args: list[TypeRef]

    def flatten(self, include_args: bool) -> list[str]:
        """Base names referenced by this type; wildcards contribute only bounds."""
        names = [] if self.name == "?" else [self.name]
        if include_args or self.name == "?":
            for arg in self.args:
                names.extend(arg.flatten(include_args))
        return names


class ClassDecl(NamedTuple):
    """Parsed header of one class or interface (nested types get their own)."""

    fqn: str
    package: str
    supertypes: list[TypeRef]
    field_types: list[TypeRef]
    param_types: list[TypeRef]
    ctor_param_types: list[TypeRef]
    return_types: list[TypeRef]
    imports: list[str]
    # Type variables in scope in the class body: the class's own and those of
    # its enclosing classes. A generic method's own are in scope only in its
    # signature and are not listed here.
    type_params: set[str]
    line: int

    @property
    def simple_name(self) -> str:
        return self.fqn.rsplit(".", 1)[-1]


def tokenize(source: str, filename: str | None = None) -> list[tuple[str, int]]:
    """Produce the token stream, skipping comments, modifiers and annotations.

    A token is the pair (text, offset of its first character), and the
    stream ends with ("", len(source)). One compiled pattern is matched at
    each offset. It skips whitespace and comments, then takes a word
    ``[\\w$]+``, punctuation (``...`` included), a string or char literal,
    or ``@``. A word that starts with a letter, ``_`` or ``$`` is an
    identifier, and dropped if it is a modifier; one that starts with a digit
    is re-read as a numeric literal ``[\\w$.]+``; any other start is an
    unexpected character. So no identifier or literal text equals a
    punctuation string or "", and the parser tells tokens apart by their
    text alone. An annotation is ``@`` and a name, then an optional
    ``(...)`` right after it; it yields no token. Inside the parentheses,
    string and char literals are skipped whole and every other character is
    skipped raw, so only parentheses outside literals count.

    ``position`` turns an offset into a line and column, which only errors
    and ``ClassDecl.line`` need. ParseError is raised for an unexpected
    character, an unterminated block comment, an unterminated string or char
    literal (one ending in a backslash at end of input included, and a quote
    in annotation arguments that starts no complete literal), an ``@`` with
    no name, and an annotation whose ``(`` is never closed ("unterminated
    annotation").
    """
    tokens: list[tuple[str, int]] = []
    append = tokens.append
    match = _TOKEN.match
    n = len(source)
    i = 0

    def err(msg: str, pos: int) -> ParseError:
        return ParseError(msg, *position(source, pos), filename)

    while True:
        m = match(source, i)
        group = m.lastindex
        if group is None:
            i = m.end()
            if i == n:
                break
            if source.startswith("/*", i):
                raise err("unterminated block comment", i)
            if source[i] in "\"'":
                raise err("unterminated literal", i)
            raise err(f"unexpected character {source[i]!r}", i)
        start, i = m.span(group)
        if group == 1:
            ch = source[start]
            if ch.isalpha() or ch in "_$":
                word = source[start:i]
                if word not in MODIFIERS:
                    append((word, start))
            elif ch.isdigit():
                # Numeric literal; only ever skipped, so lex permissively.
                i = _DOTTED.match(source, start).end()
                append((source[start:i], start))
            else:
                raise err(f"unexpected character {ch!r}", start)
        elif group in (2, 3):
            append((source[start:i], start))
        else:
            end = _DOTTED.match(source, i).end()
            if not _is_identifier(source[i:end]):
                raise err("expected annotation name after '@'", i)
            if source.startswith("(", end):
                depth = 0
                for atom in _ANNOTATION_ATOM.finditer(source, end):
                    if atom.lastindex == 2:
                        raise err("unterminated literal", atom.start())
                    if atom.lastindex:
                        continue  # a literal
                    depth += 1 if atom.group() == "(" else -1
                    if depth == 0:
                        break
                else:
                    raise err("unterminated annotation", end)
                end = atom.end()
            i = end
    append(("", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]], source: str,
                 filename: str | None = None):
        self.tokens = tokens
        # The token texts alone: the hot paths below index this list
        # rather than call the helpers.
        self.texts = [text for text, _ in tokens]
        self.source = source
        self.pos = 0
        self.depth = 0  # see MAX_NESTING
        self.filename = filename
        self.package = ""
        self.imports: list[str] = []
        self.decls: list[ClassDecl] = []
        self.type_vars: set[str] = set()  # type variables in scope here

    # -- token helpers ------------------------------------------------------

    def peek(self) -> str:
        return self.texts[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.texts[self.pos - 1]

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def error(self, message: str, index: int | None = None) -> ParseError:
        """ParseError at token `index`, by default the current one."""
        offset = self.tokens[self.pos if index is None else index][1]
        return ParseError(message, *position(self.source, offset), self.filename)

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.error(f"expected {text!r}, found {self.peek()!r}")
        self.pos += 1

    def enter(self) -> None:
        """Open one nesting level at the current token."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nesting too deep")

    def expect_ident(self) -> str:
        text = self.texts[self.pos]
        if not _is_identifier(text) or text in KEYWORDS:
            raise self.error(f"expected identifier, found {text!r}")
        self.pos += 1
        return text

    # -- grammar ------------------------------------------------------------

    def parse_unit(self) -> list[ClassDecl]:
        if self.at("package"):
            self.next()
            self.package = self.qualified_name()
            self.expect(";")
        while self.at("import"):
            self.next()
            name = self.qualified_name()
            self.expect(";")
            self.imports.append(name)
        if self.at(""):
            raise self.error("expected class or interface declaration")
        while not self.at(""):
            self.type_decl(outer=None)
        seen: set[str] = set()
        for decl in self.decls:
            if decl.fqn in seen:
                raise ParseError(f"duplicate class {decl.fqn!r}", decl.line, 1,
                                 self.filename)
            seen.add(decl.fqn)
        return self.decls

    def qualified_name(self) -> str:
        parts = [self.expect_ident()]
        texts = self.texts
        while texts[self.pos] == ".":
            self.pos += 1
            parts.append(self.expect_ident())
        return ".".join(parts)

    def type_decl(self, outer: ClassDecl | None) -> None:
        if self.peek() not in ("class", "interface"):
            raise self.error(
                f"expected 'class' or 'interface', found {self.peek()!r}")
        self.next()
        offset = self.tokens[self.pos][1]
        name = self.expect_ident()
        if outer is None:
            fqn = f"{self.package}.{name}" if self.package else name
        else:
            fqn = f"{outer.fqn}.{name}"
        line = position(self.source, offset)[0]
        type_params = self.type_param_names() if self.at("<") else set()
        if outer is not None:
            type_params |= outer.type_params
        # Fresh lists for the five reference buckets, filled below.
        decl = ClassDecl(fqn, self.package, [], [], [], [], [],
                         list(self.imports), type_params, line)
        self.type_vars = type_params
        if self.at("extends"):
            self.next()
            decl.supertypes.extend(self.supertypes())
        if self.at("implements"):
            self.next()
            decl.supertypes.extend(self.supertypes())
        self.expect("{")
        texts = self.texts
        while texts[self.pos] != "}":
            if texts[self.pos] == "":
                raise self.error("unexpected end of input in class body")
            self.member(decl)
        self.next()  # closing brace
        self.decls.append(decl)

    def type_param_names(self) -> set[str]:
        """Parse <T, U extends Bound & Other, ...>. Bound types are discarded,
        so no type variable counts as in scope in them."""
        self.expect("<")
        self.type_vars = set()
        names: set[str] = set()
        while True:
            names.add(self.expect_ident())
            if self.at("extends"):
                self.enter()
                self.next()
                self.type_ref()
                while self.at("&"):
                    self.next()
                    self.type_ref()
                self.depth -= 1
            if self.at(","):
                self.next()
                continue
            self.expect(">")
            return names

    def supertypes(self) -> list[TypeRef]:
        """Parse the type list after extends or implements; a type variable
        in scope is no class to extend."""
        refs: list[TypeRef] = []
        while True:
            start = self.pos
            ref = self.type_ref()
            if ref.name in self.type_vars:
                raise self.error(
                    f"type variable {ref.name!r} used as a supertype", start)
            self.store(refs, ref)
            if not self.at(","):
                return refs
            self.next()

    def type_ref(self) -> TypeRef:
        texts = self.texts
        args: list[TypeRef] = []
        name = texts[self.pos]
        if name == "?":
            self.pos += 1
            if texts[self.pos] in ("extends", "super"):
                self.enter()
                self.pos += 1
                self.store(args, self.type_ref())
                self.depth -= 1
            return TypeRef("?", args)
        if not _is_identifier(name):
            raise self.error(f"expected type, found {name!r}")
        if name == "void":
            self.pos += 1
            return TypeRef(name, args)
        if name in PRIMITIVES:
            self.pos += 1
        else:
            if name in self.type_vars and texts[self.pos + 1] == ".":
                raise self.error(
                    f"member type selected from type variable {name!r}")
            name = self.qualified_name()
        if texts[self.pos] == "<":
            if name in PRIMITIVES or name in self.type_vars:
                kind = "primitive" if name in PRIMITIVES else "type variable"
                raise self.error(f"type arguments on {kind} {name!r}")
            self.enter()
            self.pos += 1
            self.store(args, self.type_ref())
            while texts[self.pos] == ",":
                self.pos += 1
                self.store(args, self.type_ref())
            self.expect(">")
            self.depth -= 1
        while texts[self.pos] == "[":
            self.pos += 1
            self.expect("]")  # arrays decay to the element type
        return TypeRef(name, args)

    def member(self, decl: ClassDecl) -> None:
        texts = self.texts
        if texts[self.pos] in ("class", "interface"):
            self.enter()
            self.type_decl(outer=decl)
            self.depth -= 1
            return
        self.type_vars = decl.type_params
        if texts[self.pos] == "<":
            self.type_vars = decl.type_params | self.type_param_names()
        ref = self.type_ref()
        if texts[self.pos] == "(":
            # Constructor: the "type" was the class name.
            if ref.name != decl.simple_name:
                raise self.error(f"unexpected '(' after {ref.name!r}")
            self.method_tail(decl, return_ref=None, is_ctor=True)
            return
        self.expect_ident()
        if texts[self.pos] == "(":
            self.method_tail(decl, return_ref=ref)
            return
        # Field declaration, possibly multi-name with initializers.
        self.store(decl.field_types, ref)
        while True:
            if texts[self.pos] == "=":
                self.skip_initializer()
            if texts[self.pos] == ",":
                self.pos += 1
                self.expect_ident()
                self.store(decl.field_types, ref)
                continue
            self.expect(";")
            return

    def method_tail(self, decl: ClassDecl, return_ref: TypeRef | None,
                    is_ctor: bool = False) -> None:
        """Parse '(params) [throws ...] (; | {body})' and record the types."""
        texts = self.texts
        self.expect("(")
        params: list[TypeRef] = []
        if texts[self.pos] != ")":
            while True:
                params.append(self.type_ref())
                if texts[self.pos] == "...":
                    self.pos += 1
                text = texts[self.pos]
                if _is_identifier(text) and text not in KEYWORDS:
                    self.pos += 1  # parameter name is optional
                if texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        if texts[self.pos] == "throws":
            self.pos += 1
            self.qualified_name()
            while texts[self.pos] == ",":
                self.pos += 1
                self.qualified_name()
        if texts[self.pos] == "{":
            self.skip_block()
        else:
            self.expect(";")
        bucket = decl.ctor_param_types if is_ctor else decl.param_types
        for param in params:
            self.store(bucket, param)
        if return_ref is not None:
            self.store(decl.return_types, return_ref)

    def store(self, bucket: list[TypeRef], ref: TypeRef) -> None:
        """Append ref unless it names void, a primitive or a type variable
        in scope, none of which is ever a class."""
        name = ref.name
        if name == "void" or name in PRIMITIVES or name in self.type_vars:
            return
        bucket.append(ref)

    def skip_block(self) -> None:
        """Skip from the current '{' past the '}' that closes it: the first
        '}' at which as many '}' as '{' have been passed. Each '}' is found
        with `list.index` and the '{' before it counted over a slice, so
        no Python step is taken per token."""
        texts = self.texts
        pos = self.pos
        opened = closed = 0
        while True:
            try:
                close = texts.index("}", pos)
            except ValueError:
                raise self.error("unterminated block",
                                 len(texts) - 1) from None
            opened += texts[pos:close].count("{")
            closed += 1
            pos = close + 1
            if closed == opened:
                self.pos = pos
                return

    def skip_initializer(self) -> None:
        """Skip '= ...' up to the terminating ';' or ',' at nesting depth 0."""
        self.expect("=")
        texts = self.texts
        pos = self.pos
        depth = 0
        while True:
            text = texts[pos]
            if text == "":
                raise self.error("unterminated field initializer", pos)
            if text in ("{", "(", "["):
                depth += 1
            elif text in ("}", ")", "]"):
                depth -= 1
            elif text in (";", ",") and depth == 0:
                self.pos = pos
                return
            pos += 1


def parse_class_headers(source_text: str, filename: str | None = None) -> list[ClassDecl]:
    """Parse one header-source file into ClassDecls (nested classes flattened).

    Generic arguments, wildcard and type-parameter bounds and nested classes
    nested more than MAX_NESTING levels deep raise ParseError("nesting too
    deep") at the token that opens the level past the cap. As in Java, type
    arguments on a primitive, or on a type variable in scope outside
    type-parameter bounds, raise ParseError at their ``<``. A type variable
    in scope as a supertype, or as the first part of a qualified type name
    (``T.Inner``), raises it at the variable.
    """
    tokens = tokenize(source_text, filename)
    return _Parser(tokens, source_text, filename).parse_unit()
