"""Lexer and recursive-descent parser for class-header source (.chd files).

The accepted language is a Java-like header subset: package declaration,
imports, class/interface declarations with extends/implements clauses, field
declarations and method signatures. Modifiers, annotations and throws clauses
are skipped; method bodies, field initializers, initializer blocks and
annotation arguments are skipped unread, as characters (see ``_skip``).
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
      | (\.\.\. | [}()<>\[\];,.?&])             # 2: punctuation
      | """ + _LITERAL + r"""                  # 3: string or char literal
      | (@)                                      # 4: annotation
      | ([{=])                                   # 5: a stop, see tokenize
    )?""", re.VERBOSE | re.DOTALL)
_DOTTED = re.compile(r"[\w$.]*")  # a numeric literal or an annotation name
# What _skip steps over, one match at a time: a run of characters that no
# skip counts, a comment or a literal (group 1) whole, a quote or "/*" that
# starts none (group 2), or one other character.
_SKIPPED = re.compile(r"""
    [^"'/(){}\[\];,]+ | //[^\n]* | /\*.*?\*/ | """ + _LITERAL + r"""
  | (["'] | /\*) | .""", re.VERBOSE | re.DOTALL)
# Per opener: the brackets that count, and what it opens.
_SKIP_RULES = {"(": ("(", ")", "annotation"), "{": ("{", "}", "block"),
               "=": ("([{", ")]}", "field initializer")}
# After a ',' at depth 0 in an initializer: more declarator names, the last
# followed by '=' or ';' (group 1). Each gap item matches one way only, so
# a failed match never backtracks into a comment; where none follows, the
# match ends past the last name-and-comma, and none of the commas it passed
# can end the initializer either.
_GAP = r"(?:[ \t\r\n]|//[^\n]*(?!.)|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
_DECLARATORS = re.compile(rf"(?:{_GAP}[\w$]+{_GAP},)*({_GAP}[\w$]+{_GAP}[=;])?")


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


def tokenize(source: str, filename: str | None = None,
             start: int = 0) -> list[tuple[str, int]]:
    """Produce the header tokens from offset start, skipping comments,
    modifiers and annotations, up to and with the next ``{`` or ``=``.

    A token is the pair (text, offset of its first character). The stream
    ends with ``{`` or ``=`` where one comes, and otherwise with
    ("", len(source)): the text after a ``{`` or ``=`` may be a body or an
    initializer, which only the parser can tell, so it is lexed by a call
    that starts where the parser chooses (see ``_skip``). One compiled
    pattern is matched at each offset. It skips whitespace and comments,
    then takes a word ``[\\w$]+``, punctuation (``...`` included), a string
    or char literal, or ``@``. A word that starts with a letter, ``_`` or
    ``$`` is an identifier, and dropped if it is a modifier; one that starts
    with a digit is re-read as a numeric literal ``[\\w$.]+``; any other
    start is an unexpected character. So no identifier or literal text
    equals a punctuation string or "", and the parser tells tokens apart by
    their text alone. An annotation is ``@`` and a name, then an optional
    ``(...)`` right after it, skipped by ``_skip``; it yields no token.

    ``position`` turns an offset into a line and column, which only errors
    and ``ClassDecl.line`` need. ParseError is raised for an unexpected
    character, an unterminated block comment, an unterminated string or char
    literal (one ending in a backslash at end of input included), an ``@``
    with no name, and the errors of ``_skip`` in annotation arguments.
    """
    tokens: list[tuple[str, int]] = []
    append = tokens.append
    match = _TOKEN.match
    n = len(source)
    i = start

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
        at, i = m.span(group)
        if group == 1:
            ch = source[at]
            if ch.isalpha() or ch in "_$":
                word = source[at:i]
                if word not in MODIFIERS:
                    append((word, at))
            elif ch.isdigit():
                # Numeric literal; only ever skipped, so lex permissively.
                i = _DOTTED.match(source, at).end()
                append((source[at:i], at))
            else:
                raise err(f"unexpected character {ch!r}", at)
        elif group == 4:
            end = _DOTTED.match(source, i).end()
            if not _is_identifier(source[i:end]):
                raise err("expected annotation name after '@'", i)
            i = end
            if source.startswith("(", end):
                i = _skip(source, end, filename)
        else:
            append((source[at:i], at))
            if group == 5:
                return tokens
    append(("", n))
    return tokens


def _skip(source: str, start: int, filename: str | None) -> int:
    """End of the text that the ``(``, ``{`` or ``=`` at offset start opens,
    which is skipped unread.

    Comments and string and char literals are taken whole, so a bracket,
    ``;`` or ``,`` inside one does not count, and any other character may
    appear. The opener sets which brackets count. Annotation arguments
    after ``(`` and a body after ``{`` end after the parenthesis or brace
    that closes the opener; other brackets are not counted. An initializer
    after ``=`` counts all three pairs and ends at (the offset of) the first
    ``;`` or ``,`` at depth 0. A ``,`` ends it only if declarator names
    follow, separated by ``,``, the last one followed by ``=`` or ``;``, so
    the ``,`` in ``new HashMap<B, C>()`` does not, while the one in
    ``x < y, b;`` does. ParseError is raised for an unterminated comment or
    literal, and at the opener if the text never ends.
    """
    opener = source[start]
    opens, closes, what = _SKIP_RULES[opener]
    depth = checked = 0  # commas before offset checked cannot end it
    for m in _SKIPPED.finditer(source, start):
        text = m.group()
        if m.lastindex == 2:
            what = "block comment" if text == "/*" else "literal"
            start = m.start()
            break
        if text in opens:
            depth += 1
        elif text in closes:
            depth -= 1
            if depth == 0 and opener != "=":
                return m.end()
        elif depth == 0 and text in (";", ",") and m.end() > checked:
            names = text == "," and _DECLARATORS.match(source, m.end())
            if not names or names.group(1):
                return m.start()
            checked = names.end()
    raise ParseError(f"unterminated {what}", *position(source, start), filename)


class _Parser:
    def __init__(self, source: str, filename: str | None = None):
        self.tokens: list[tuple[str, int]] = []
        # The token texts alone: the current token is always
        # `self.texts[self.pos]`, and a step is `self.pos += 1`.
        self.texts: list[str] = []
        self.source = source
        self.pos = 0
        self.depth = 0  # see MAX_NESTING
        self.filename = filename
        self.package = ""
        self.imports: list[str] = []
        self.decls: list[ClassDecl] = []
        self.type_vars: set[str] = set()  # type variables in scope here
        self.lex(0)

    # -- token helpers ------------------------------------------------------

    def error(self, message: str, index: int | None = None) -> ParseError:
        """ParseError at token `index`, by default the current one."""
        offset = self.tokens[self.pos if index is None else index][1]
        return ParseError(message, *position(self.source, offset), self.filename)

    def lex(self, start: int) -> None:
        """Append the tokens from offset start through the next stop."""
        tokens = tokenize(self.source, self.filename, start)
        self.tokens += tokens
        self.texts += [text for text, _ in tokens]

    def skip(self) -> None:
        """Step over the current '{' or '=' and the text it opens, unread,
        and lex on after it."""
        end = _skip(self.source, self.tokens[self.pos][1], self.filename)
        self.pos += 1
        self.lex(end)

    def expect(self, text: str) -> None:
        found = self.texts[self.pos]
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}")
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
        texts = self.texts
        if texts[self.pos] == "package":
            self.pos += 1
            self.package = self.qualified_name()
            self.expect(";")
        while texts[self.pos] == "import":
            self.pos += 1
            self.imports.append(self.qualified_name())
            self.expect(";")
        if texts[self.pos] == "":
            raise self.error("expected class or interface declaration")
        while texts[self.pos] != "":
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
        texts = self.texts
        if texts[self.pos] not in ("class", "interface"):
            raise self.error(
                f"expected 'class' or 'interface', found {texts[self.pos]!r}")
        self.pos += 1
        offset = self.tokens[self.pos][1]
        name = self.expect_ident()
        if outer is None:
            fqn = f"{self.package}.{name}" if self.package else name
        else:
            fqn = f"{outer.fqn}.{name}"
        line = position(self.source, offset)[0]
        type_params = self.type_param_names() if texts[self.pos] == "<" else set()
        if outer is not None:
            type_params |= outer.type_params
        # Fresh lists for the five reference buckets, filled below.
        decl = ClassDecl(fqn, self.package, [], [], [], [], [],
                         list(self.imports), type_params, line)
        self.type_vars = type_params
        for keyword in ("extends", "implements"):
            if texts[self.pos] == keyword:
                self.pos += 1
                self.supertypes(decl.supertypes)
        self.expect("{")
        self.lex(self.tokens[self.pos - 1][1] + 1)
        while texts[self.pos] != "}":
            if texts[self.pos] == "":
                raise self.error("unexpected end of input in class body")
            self.member(decl)
        self.pos += 1  # closing brace
        self.decls.append(decl)

    def type_param_names(self) -> set[str]:
        """Parse <T, U extends Bound & Other, ...>. Bound types are discarded,
        so no type variable counts as in scope in them."""
        self.expect("<")
        texts = self.texts
        self.type_vars = set()
        names: set[str] = set()
        while True:
            names.add(self.expect_ident())
            if texts[self.pos] == "extends":
                self.enter()
                self.pos += 1
                self.type_ref()
                while texts[self.pos] == "&":
                    self.pos += 1
                    self.type_ref()
                self.depth -= 1
            if texts[self.pos] != ",":
                self.expect(">")
                return names
            self.pos += 1

    def supertypes(self, refs: list[TypeRef]) -> None:
        """Parse the type list after extends or implements into refs; a type
        variable in scope is no class to extend."""
        while True:
            start = self.pos
            ref = self.type_ref()
            if ref.name in self.type_vars:
                raise self.error(
                    f"type variable {ref.name!r} used as a supertype", start)
            self.store(refs, ref)
            if self.texts[self.pos] != ",":
                return
            self.pos += 1

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
        if texts[self.pos] == "{":  # an initializer block
            self.skip()
            return
        if texts[self.pos] == ";":  # an empty member
            self.pos += 1
            return
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
            self.method_tail(decl.ctor_param_types)
            return
        self.expect_ident()
        if texts[self.pos] == "(":
            self.method_tail(decl.param_types)
            self.store(decl.return_types, ref)
            return
        # Field declaration, possibly multi-name with initializers.
        while True:
            self.store(decl.field_types, ref)
            if texts[self.pos] == "=":
                self.skip()
            if texts[self.pos] != ",":
                self.expect(";")
                return
            self.pos += 1
            self.expect_ident()

    def method_tail(self, params: list[TypeRef]) -> None:
        """Parse '(params) [throws ...] (; | {body})', storing the parameter
        types in params."""
        texts = self.texts
        self.expect("(")
        if texts[self.pos] != ")":
            while True:
                self.store(params, self.type_ref())
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
            self.skip()
        else:
            self.expect(";")

    def store(self, bucket: list[TypeRef], ref: TypeRef) -> None:
        """Append ref unless it names void, a primitive or a type variable
        in scope, none of which is ever a class."""
        name = ref.name
        if name == "void" or name in PRIMITIVES or name in self.type_vars:
            return
        bucket.append(ref)


def parse_class_headers(source_text: str, filename: str | None = None) -> list[ClassDecl]:
    """Parse one header-source file into ClassDecls (nested classes flattened).

    The parser lexes the file with ``tokenize`` up to each ``{`` or ``=``,
    and lexes on after a class body's ``{``, or past the method body,
    initializer block or field initializer that ``_skip`` steps over; so
    their text is never tokenized, and may hold any character. A lone ``;``
    among the members is an empty member. Errors are reported in file
    order, except that a lexical error is reported before a syntax error
    earlier in the same stretch, the text up to the next ``{`` or ``=``.

    Generic arguments, wildcard and type-parameter bounds and nested classes
    nested more than MAX_NESTING levels deep raise ParseError("nesting too
    deep") at the token that opens the level past the cap. As in Java, type
    arguments on a primitive, or on a type variable in scope outside
    type-parameter bounds, raise ParseError at their ``<``. A type variable
    in scope as a supertype, or as the first part of a qualified type name
    (``T.Inner``), raises it at the variable.
    """
    return _Parser(source_text, filename).parse_unit()
