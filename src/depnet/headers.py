"""Lexer and recursive-descent parser for class-header source (.chd files).

The accepted language is a Java-like header subset: package declaration,
imports, class/interface declarations with extends/implements clauses, field
declarations and method signatures. Modifiers, annotations and throws clauses
are skipped; method bodies and field initializers are ignored when present.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


class Token(NamedTuple):
    kind: str  # "ident", "punct", "literal", "eof"
    value: str
    pos: int  # offset of the first character in the source


def position(source: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset pos; only "\\n" ends a line."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


@dataclass
class TypeRef:
    """A source type reference: possibly qualified base name plus type arguments.

    Array dimensions decay to the element type at parse time; primitive and
    void references are never stored on a ClassDecl.
    """

    name: str
    args: list["TypeRef"] = field(default_factory=list)

    def flatten(self, include_args: bool) -> list[str]:
        """Base names referenced by this type; wildcards contribute only bounds."""
        names = [] if self.name == "?" else [self.name]
        if include_args or self.name == "?":
            for arg in self.args:
                names.extend(arg.flatten(include_args))
        return names


@dataclass
class ClassDecl:
    """Parsed header of one class or interface (nested types get their own)."""

    fqn: str
    package: str
    is_interface: bool = False
    supertypes: list[TypeRef] = field(default_factory=list)
    field_types: list[TypeRef] = field(default_factory=list)
    param_types: list[TypeRef] = field(default_factory=list)
    ctor_param_types: list[TypeRef] = field(default_factory=list)
    return_types: list[TypeRef] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)
    type_params: set[str] = field(default_factory=set)
    line: int = 0

    @property
    def simple_name(self) -> str:
        return self.fqn.rsplit(".", 1)[-1]


def tokenize(source: str, filename: str | None = None) -> list[Token]:
    """Produce the token stream, skipping comments, modifiers and annotations.

    One compiled pattern is matched at each offset. It skips whitespace and
    comments, then takes a word ``[\\w$]+``, punctuation (``...`` included),
    a string or char literal, or ``@``. A word that starts with a letter,
    ``_`` or ``$`` is an identifier, and dropped if it is a modifier; one that
    starts with a digit is re-read as a numeric literal ``[\\w$.]+``; any
    other start is an unexpected character. An annotation is ``@`` and a name,
    then an optional ``(...)`` right after it; it yields no token. Inside
    the parentheses, string and char literals are skipped whole and every
    other character is skipped raw, so only parentheses outside literals
    count.

    Each token holds the offset of its first character; ``position`` turns an
    offset into a line and column, which only errors and ``ClassDecl.line``
    need. ParseError is raised for an unexpected character, an unterminated
    block comment, an unterminated string or char literal (one ending in a
    backslash at end of input included, and a quote in annotation arguments
    that starts no complete literal), an ``@`` with no name, and an
    annotation whose ``(`` is never closed ("unterminated annotation").
    """
    tokens: list[Token] = []
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
                    append(Token("ident", word, start))
            elif ch.isdigit():
                # Numeric literal; only ever skipped, so lex permissively.
                i = _DOTTED.match(source, start).end()
                append(Token("literal", source[start:i], start))
            else:
                raise err(f"unexpected character {ch!r}", start)
        elif group == 2:
            append(Token("punct", source[start:i], start))
        elif group == 3:
            append(Token("literal", source[start:i], start))
        else:
            end = _DOTTED.match(source, i).end()
            if end == i or not (source[i].isalpha() or source[i] in "_$"):
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
    append(Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], source: str,
                 filename: str | None = None):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.depth = 0  # see MAX_NESTING
        self.filename = filename
        self.package = ""
        self.imports: list[str] = []
        self.decls: list[ClassDecl] = []

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, *position(self.source, tok.pos), self.filename)

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_word(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == value

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            raise self.error(f"expected {value!r}, found {self.peek().value!r}")
        return self.next()

    def enter(self) -> None:
        """Open one nesting level at the current token."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nesting too deep")

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value in KEYWORDS:
            raise self.error(f"expected identifier, found {tok.value!r}")
        return self.next()

    # -- grammar ------------------------------------------------------------

    def parse_unit(self) -> list[ClassDecl]:
        if self.at_word("package"):
            self.next()
            self.package = self.qualified_name()
            self.expect_punct(";")
        while self.at_word("import"):
            self.next()
            name = self.qualified_name()
            self.expect_punct(";")
            self.imports.append(name)
        if self.peek().kind == "eof":
            raise self.error("expected class or interface declaration")
        while self.peek().kind != "eof":
            self.type_decl(outer=None)
        seen: set[str] = set()
        for decl in self.decls:
            if decl.fqn in seen:
                raise ParseError(f"duplicate class {decl.fqn!r}", decl.line, 1,
                                 self.filename)
            seen.add(decl.fqn)
        return self.decls

    def qualified_name(self) -> str:
        parts = [self.expect_ident().value]
        while self.at_punct("."):
            self.next()
            parts.append(self.expect_ident().value)
        return ".".join(parts)

    def type_decl(self, outer: ClassDecl | None) -> None:
        tok = self.peek()
        if not (self.at_word("class") or self.at_word("interface")):
            raise self.error(f"expected 'class' or 'interface', found {tok.value!r}")
        is_interface = tok.value == "interface"
        self.next()
        name_tok = self.expect_ident()
        if outer is None:
            fqn = f"{self.package}.{name_tok.value}" if self.package else name_tok.value
        else:
            fqn = f"{outer.fqn}.{name_tok.value}"
        decl = ClassDecl(fqn=fqn, package=self.package, is_interface=is_interface,
                         imports=list(self.imports),
                         line=position(self.source, name_tok.pos)[0])
        if self.at_punct("<"):
            decl.type_params |= self.type_param_names()
        if self.at_word("extends"):
            self.next()
            decl.supertypes.extend(self.type_list())
        if self.at_word("implements"):
            self.next()
            decl.supertypes.extend(self.type_list())
        self.expect_punct("{")
        while not self.at_punct("}"):
            if self.peek().kind == "eof":
                raise self.error("unexpected end of input in class body")
            self.member(decl)
        self.next()  # closing brace
        self.decls.append(decl)

    def type_param_names(self) -> set[str]:
        """Parse <T, U extends Bound & Other, ...>; bound types are discarded."""
        self.expect_punct("<")
        names: set[str] = set()
        while True:
            names.add(self.expect_ident().value)
            if self.at_word("extends"):
                self.enter()
                self.next()
                self.type_ref()
                while self.at_punct("&"):
                    self.next()
                    self.type_ref()
                self.depth -= 1
            if self.at_punct(","):
                self.next()
                continue
            self.expect_punct(">")
            return names

    def type_list(self) -> list[TypeRef]:
        refs = [self.type_ref()]
        while self.at_punct(","):
            self.next()
            refs.append(self.type_ref())
        return refs

    def type_ref(self) -> TypeRef:
        if self.at_punct("?"):
            self.next()
            ref = TypeRef("?")
            if self.at_word("extends") or self.at_word("super"):
                self.enter()
                self.next()
                ref.args.append(self.type_ref())
                self.depth -= 1
            return ref
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected type, found {tok.value!r}")
        if tok.value == "void":
            self.next()
            return TypeRef("void")
        if tok.value in PRIMITIVES:
            self.next()
            name = tok.value
            ref = TypeRef(name)
        else:
            ref = TypeRef(self.qualified_name())
        if self.at_punct("<"):
            self.enter()
            self.next()
            ref.args.append(self.type_ref())
            while self.at_punct(","):
                self.next()
                ref.args.append(self.type_ref())
            self.expect_punct(">")
            self.depth -= 1
        while self.at_punct("["):
            self.next()
            self.expect_punct("]")  # arrays decay to the element type
        return ref

    def member(self, decl: ClassDecl) -> None:
        if self.at_word("class") or self.at_word("interface"):
            self.enter()
            self.type_decl(outer=decl)
            self.depth -= 1
            return
        if self.at_punct("<"):
            decl.type_params |= self.type_param_names()
        ref = self.type_ref()
        if self.at_punct("("):
            # Constructor: the "type" was the class name.
            if ref.name != decl.simple_name:
                raise self.error(f"unexpected '(' after {ref.name!r}")
            self.method_tail(decl, return_ref=None, is_ctor=True)
            return
        name_tok = self.expect_ident()
        if self.at_punct("("):
            self.method_tail(decl, return_ref=ref)
            return
        # Field declaration, possibly multi-name with initializers.
        self.store(decl.field_types, ref)
        while True:
            if self.at_punct("="):
                self.skip_initializer()
            if self.at_punct(","):
                self.next()
                self.expect_ident()
                self.store(decl.field_types, ref)
                continue
            self.expect_punct(";")
            return

    def method_tail(self, decl: ClassDecl, return_ref: TypeRef | None,
                    is_ctor: bool = False) -> None:
        """Parse '(params) [throws ...] (; | {body})' and record the types."""
        self.expect_punct("(")
        params: list[TypeRef] = []
        if not self.at_punct(")"):
            while True:
                params.append(self.type_ref())
                if self.at_punct("..."):
                    self.next()
                if self.peek().kind == "ident" and self.peek().value not in KEYWORDS:
                    self.next()  # parameter name is optional
                if self.at_punct(","):
                    self.next()
                    continue
                break
        self.expect_punct(")")
        if self.at_word("throws"):
            self.next()
            self.qualified_name()
            while self.at_punct(","):
                self.next()
                self.qualified_name()
        if self.at_punct("{"):
            self.skip_block()
        else:
            self.expect_punct(";")
        bucket = decl.ctor_param_types if is_ctor else decl.param_types
        for param in params:
            self.store(bucket, param)
        if return_ref is not None:
            self.store(decl.return_types, return_ref)

    def store(self, bucket: list[TypeRef], ref: TypeRef) -> None:
        if ref.name == "void" or ref.name in PRIMITIVES:
            return
        bucket.append(ref)

    def skip_block(self) -> None:
        depth = 0
        while True:
            tok = self.next()
            if tok.kind == "eof":
                raise self.error("unterminated block", tok)
            if tok.kind == "punct" and tok.value == "{":
                depth += 1
            elif tok.kind == "punct" and tok.value == "}":
                depth -= 1
                if depth == 0:
                    return

    def skip_initializer(self) -> None:
        """Skip '= ...' up to the terminating ';' or ',' at nesting depth 0."""
        self.expect_punct("=")
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                raise self.error("unterminated field initializer")
            if tok.kind == "punct":
                if tok.value in "{([":
                    depth += 1
                elif tok.value in "})]":
                    depth -= 1
                elif tok.value in ";," and depth == 0:
                    return
            self.next()


def parse_class_headers(source_text: str, filename: str | None = None) -> list[ClassDecl]:
    """Parse one header-source file into ClassDecls (nested classes flattened).

    Generic arguments, wildcard and type-parameter bounds and nested classes
    nested more than MAX_NESTING levels deep raise ParseError("nesting too
    deep") at the token that opens the level past the cap.
    """
    tokens = tokenize(source_text, filename)
    return _Parser(tokens, source_text, filename).parse_unit()
