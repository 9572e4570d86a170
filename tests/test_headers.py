import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from depnet import ParseError, parse_class_headers
from depnet.headers import MAX_NESTING, position, tokenize

from conftest import CORPUS_DIR
from oracles import tokenize_reference


def refs(type_refs):
    return [r.name for r in type_refs]


def test_basic_class():
    decls = parse_class_headers(
        "package p; class Foo extends Bar { Baz f; Qux m(Quux x); }"
    )
    assert len(decls) == 1
    decl = decls[0]
    assert decl.fqn == "p.Foo"
    assert decl.package == "p"
    assert refs(decl.supertypes) == ["Bar"]
    assert refs(decl.field_types) == ["Baz"]
    assert refs(decl.param_types) == ["Quux"]
    assert refs(decl.return_types) == ["Qux"]


def test_empty_class_no_package():
    decl = parse_class_headers("class A {}")[0]
    assert decl.fqn == "A"
    assert decl.package == ""
    assert not (decl.supertypes or decl.field_types or decl.param_types
                or decl.return_types)


def test_interface_void_ignored():
    decl = parse_class_headers("package p; interface I { void m(); }")[0]
    assert decl.fqn == "p.I"
    assert decl.is_interface
    assert decl.return_types == []
    assert decl.param_types == []


def test_primitives_never_stored():
    decl = parse_class_headers(
        "class A { int x; double y; boolean flag(long t, char c); }"
    )[0]
    assert decl.field_types == []
    assert decl.param_types == []
    assert decl.return_types == []


def test_nested_class_flattened():
    decls = parse_class_headers(
        "package p; class Outer { Inner f; class Inner { int x; } }"
    )
    assert [d.fqn for d in decls] == ["p.Outer.Inner", "p.Outer"]
    outer = next(d for d in decls if d.fqn == "p.Outer")
    assert refs(outer.field_types) == ["Inner"]


def test_constructor_params_tracked_separately():
    decl = parse_class_headers("package p; class A { A(B b); C m(); }")[0]
    assert refs(decl.ctor_param_types) == ["B"]
    assert refs(decl.param_types) == []
    assert refs(decl.return_types) == ["C"]


def test_generics_recorded_as_arguments():
    decl = parse_class_headers("class A { Map<Foo, Bar<Baz>> f; }")[0]
    ref = decl.field_types[0]
    assert ref.name == "Map"
    assert ref.flatten(include_args=False) == ["Map"]
    assert ref.flatten(include_args=True) == ["Map", "Foo", "Bar", "Baz"]


def test_type_parameters_collected():
    """A class lists its own type variables; a generic method's are scoped
    to its signature and are not listed."""
    decl = parse_class_headers(
        "class Box<T> { T value; <U> U pick(U a, T b); }"
    )[0]
    assert decl.type_params == {"T"}
    assert decl.field_types == decl.param_types == decl.return_types == []


def test_method_type_variable_scoped_to_its_method():
    decl = parse_class_headers(
        "package p; class A { <B> void f(B b); B field; <C> C g(); C h(); }")[0]
    assert decl.type_params == set()
    assert refs(decl.param_types) == []
    assert refs(decl.field_types) == ["B"]
    assert refs(decl.return_types) == ["C"]


def test_member_class_sees_enclosing_type_variables():
    inner, outer = parse_class_headers(
        "class A<T> { class In<U> { T t; U u; Map<T, List<U>> m; V v; } T x; }")
    assert inner.fqn == "A.In"
    assert inner.type_params == {"T", "U"}
    assert outer.type_params == {"T"}
    assert refs(inner.field_types) == ["Map", "V"]
    assert inner.field_types[0].flatten(include_args=True) == ["Map", "List"]
    assert outer.field_types == []


def test_primitive_type_arguments_dropped():
    decl = parse_class_headers(
        "class A { List<int[]> x; Map<String, double[]> y; "
        "Opt<? extends long[]> z; <T> List<T> f(Map<T, boolean> m); }")[0]
    assert [r.flatten(include_args=True) for r in decl.field_types] == [
        ["List"], ["Map", "String"], ["Opt"]]
    assert [r.flatten(include_args=True) for r in decl.param_types] == [["Map"]]
    assert [r.flatten(include_args=True) for r in decl.return_types] == [["List"]]


def test_arrays_decay():
    decl = parse_class_headers("class A { Baz[] items; Baz[][] grid; }")[0]
    assert refs(decl.field_types) == ["Baz", "Baz"]


def test_modifiers_annotations_comments_skipped():
    decl = parse_class_headers(
        """
        package p;
        // leading comment
        @Deprecated
        public final class A {
            /* block comment */
            private static Baz f;
            public synchronized Qux m() throws SomeError;
        }
        """
    )[0]
    assert refs(decl.field_types) == ["Baz"]
    assert refs(decl.return_types) == ["Qux"]


def test_method_body_ignored():
    decl = parse_class_headers(
        "class A { Baz m(Qux q) { if (x) { y(); } return null; } }"
    )[0]
    assert refs(decl.return_types) == ["Baz"]
    assert refs(decl.param_types) == ["Qux"]


def test_field_initializer_ignored():
    decl = parse_class_headers("class A { Baz f = make(1, 2); int n = 3; }")[0]
    assert refs(decl.field_types) == ["Baz"]


def test_multi_name_field():
    decl = parse_class_headers("class A { Baz a, b; }")[0]
    assert refs(decl.field_types) == ["Baz", "Baz"]


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_class_headers("package p;\nclass A {\n  Baz ; \n}")
    assert err.value.line == 3


def test_lexical_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_class_headers("class A { Baz f; % }")
    assert err.value.line == 1
    assert err.value.column > 1


def test_duplicate_fqn_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_class_headers("package p; class A {} class A {}")


def test_missing_type_decl_rejected():
    with pytest.raises(ParseError):
        parse_class_headers("package p;")


def test_imports_stored():
    decl = parse_class_headers(
        "package p; import a.b.C; import d.E; class A {}"
    )[0]
    assert decl.imports == ["a.b.C", "d.E"]


@pytest.mark.parametrize("source", [
    'class A { String s = "abc\\',
    "class A { char c = '\\",
    '@A(x = ") class A { B b; }',
    "package p; class A { @B(c = ') C c; }",
])
def test_truncated_literal_is_parse_error(source):
    """A literal ending in a backslash at end of input is unterminated; the
    character-stepping tokenizer raised IndexError here. So is a quote in
    annotation arguments that starts no complete literal, as in Java; it
    used to be skipped, and the third source parsed with the field B."""
    with pytest.raises(ParseError, match="unterminated literal") as err:
        parse_class_headers(source)
    assert (err.value.line, err.value.column) == (1, source.index("=") + 3)


def test_unclosed_annotation_rejected():
    source = "package p; class A { Baz f; } @B(unclosed"
    with pytest.raises(ParseError, match="unterminated annotation") as err:
        parse_class_headers(source)
    assert (err.value.line, err.value.column) == (1, source.index("(") + 1)


def test_annotation_arguments_skipped():
    decl = parse_class_headers(
        'package p; @A(x = f(1, "s")) class A { @B(c = "()") Baz f; }')[0]
    assert refs(decl.field_types) == ["Baz"]


@pytest.mark.parametrize("source, fields", [
    ('@A(x = "(") class A {}', []),
    ('@A(x = ")") class A { B b; }', ["B"]),
    ("@A(c = '(', d = -1) class A { @B(s = \"\\\")(\", n = +2) C c; }", ["C"]),
])
def test_parenthesis_in_annotation_literal_not_counted(source, fields):
    """String and char literals in annotation arguments are atoms; the first
    two sources used to fail with 'unterminated annotation' and
    'unterminated literal'."""
    assert refs(parse_class_headers(source)[0].field_types) == fields


def nested_generics(depth):
    return "class A { " + "L<" * depth + "B" + ">" * depth + " f; }"


def nested_classes(depth):
    return ("class C0 { " + "".join(f"class C{i} {{ " for i in range(1, depth + 1))
            + "}" * (depth + 1))


def wildcard_in_generics(depth):
    return "class A { " + "L<" * depth + "? extends B" + ">" * depth + " f; }"


def bounded_type_parameter(depth):
    """The bound is one level, its generic arguments the other depth - 1."""
    return ("class A<T extends " + "L<" * (depth - 1) + "B" + ">" * (depth - 1)
            + "> {}")


@pytest.mark.parametrize("make, depth, opener", [
    (nested_generics, 1000, "<"),      # a RecursionError before
    (nested_classes, 500, "class"),    # a RecursionError before
    (nested_generics, MAX_NESTING + 1, "<"),
    (nested_classes, MAX_NESTING + 1, "class"),
    (wildcard_in_generics, MAX_NESTING, "extends"),
    (bounded_type_parameter, MAX_NESTING + 1, "<"),
], ids=["generics-1000", "classes-500", "generics-past-cap",
        "classes-past-cap", "wildcard-past-cap", "bound-past-cap"])
def test_nesting_past_the_cap_is_parse_error(make, depth, opener):
    """The cap counts generic arguments, wildcard and type-parameter bounds
    and nested classes together, and the error points at the token that
    opens the level past it."""
    source = make(depth)
    with pytest.raises(ParseError, match="nesting too deep") as err:
        parse_class_headers(source)
    offset = err.value.column - 1
    assert err.value.line == 1
    assert source.startswith(opener, offset)


def test_nesting_at_the_cap_parses():
    assert parse_class_headers(nested_generics(MAX_NESTING))[0].field_types
    assert len(parse_class_headers(nested_classes(MAX_NESTING))) == MAX_NESTING + 1
    bounded = parse_class_headers(bounded_type_parameter(MAX_NESTING))[0]
    assert bounded.type_params == {"T"}


def test_word_class_is_isalnum_underscore_dollar():
    """The tokenizer's [\\w$] must agree with str.isalnum() on every code point."""
    word = re.compile(r"[\w$]")
    assert [c for c in map(chr, range(sys.maxunicode + 1))
            if bool(word.match(c)) != (c.isalnum() or c in "_$")] == []


def test_position_counts_only_newlines():
    source = "ab\r\ncd\n\nx"
    assert [position(source, i) for i in (0, 2, 4, 6, 7, 8, len(source))] == [
        (1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (4, 1), (4, 2)]


def test_class_line_from_offset():
    decls = parse_class_headers(
        "package p;\n\n/* a\n b */ class A {\n  class B { }\n}\n")
    assert [(d.fqn, d.line) for d in decls] == [("p.A.B", 5), ("p.A", 4)]


# -- differential against the character-stepping tokenizer -----------------

def token_stream(source):
    """(kind, value, line, col) per token, or the ParseError as a tuple."""
    try:
        return [(t.kind, t.value, *position(source, t.pos))
                for t in tokenize(source, "f.chd")]
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


def reference_stream(source):
    try:
        return [(t.kind, t.value, t.line, t.col)
                for t in tokenize_reference(source, "f.chd")]
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


def offset_of(source, line, col):
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + col - 1


# One atom of an annotation's argument list: a parenthesis, a whole string
# or char literal, or a quote that starts no complete literal; every other
# character is skipped.
ARGUMENT_ATOM = re.compile(
    r"""[()]|"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*'|["']""",
    re.DOTALL)


def argument_atoms(text):
    """Atoms of the argument list that text starts with, up to and with its
    closing ')', or to the end of text if it never closes."""
    depth = 0
    for atom in ARGUMENT_ATOM.finditer(text):
        yield atom.group()
        depth += (atom.group() == "(") - (atom.group() == ")")
        if depth == 0:
            return


def never_closes(text):
    """True if the '(' that text starts with has no matching ')', literals
    counting as atoms."""
    atoms = list(argument_atoms(text))
    return atoms.count("(") != atoms.count(")")


def literal_paren_in_annotation(source):
    """True if the argument list after some '@Name' holds a literal with a
    parenthesis in it. A loose textual test: an '@' inside a comment or a
    literal counts too."""
    return any(
        atom[0] in "\"'" and ("(" in atom or ")" in atom)
        for head in re.finditer(r"@[\w$.]*\(", source)
        for atom in argument_atoms(source[head.end() - 1:]))


def stray_quote_in_annotation(source):
    """True if the argument list after some '@Name' holds a quote that
    starts no complete literal; as loose a textual test as the one above."""
    return any(
        atom in ("'", '"')
        for head in re.finditer(r"@[\w$.]*\(", source)
        for atom in argument_atoms(source[head.end() - 1:]))


def test_tokenize_matches_reference_on_golden_corpus():
    for path in sorted(CORPUS_DIR.glob("*.chd")):
        source = path.read_text()
        expected = reference_stream(source)
        assert isinstance(expected, list)
        assert token_stream(source) == expected, path.name
        # ClassDecl.line is the line of the class name token, as before.
        names = {(value, line) for (k0, v0, _, _), (_, value, line, _)
                 in zip(expected, expected[1:])
                 if k0 == "ident" and v0 in ("class", "interface")}
        decls = parse_class_headers(source, path.name)
        assert {(d.simple_name, d.line) for d in decls} == names


FUZZ_ALPHABET = [
    "class", "interface", "package", "import", "extends", "implements",
    "public", "static", "final", "int", "void", "A", "Foo", "x1", "$y", "_z",
    "2", "0x1F", "2.5f", "//", "/*", "*/", "*", "/", "\"", "'", "\\", "@",
    "@A", "(", ")", "{", "}", "<", ">", "[", "]", ";", ",", ".", "...", "=",
    "?", "&", "#", "-", " ", "\n", "\t", "\r", "\x0b", "\u00a0", "é", "²", "½",
    "Ⅻ", "٣", "ǅ",
]
fuzz_text = st.lists(st.sampled_from(FUZZ_ALPHABET), max_size=40).map("".join)


@given(fuzz_text)
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_reference_on_fuzzed_text(source):
    """Same stream or the same ParseError, apart from four documented
    fixes: a trailing backslash in a literal (IndexError before), an
    annotation whose '(' never closes (silently swallowed before), a
    parenthesis inside a literal in annotation arguments (counted before),
    and a quote in annotation arguments that starts no complete literal
    (skipped raw before; "unterminated literal" at the quote now)."""
    if literal_paren_in_annotation(source):
        return
    got = token_stream(source)
    if stray_quote_in_annotation(source) and isinstance(got, tuple) \
            and "unterminated literal" in got[0]:
        assert source[offset_of(source, got[1], got[2])] in "\"'"
        return
    try:
        expected = reference_stream(source)
    except IndexError:
        assert isinstance(got, tuple) and "unterminated literal" in got[0]
        assert source[offset_of(source, got[1], got[2])] in "\"'"
        return
    if isinstance(got, tuple) and "unterminated annotation" in got[0]:
        assert isinstance(expected, list)
        assert never_closes(source[offset_of(source, got[1], got[2]):])
        return
    assert got == expected


@given(st.one_of(st.text(), fuzz_text))
@settings(max_examples=200, deadline=None)
def test_parse_gives_result_or_parse_error(source):
    try:
        decls = parse_class_headers(source, "f.chd")
    except ParseError:
        return
    assert isinstance(decls, list) and decls


def test_extraction_throughput_bound():
    """Tokenize and parse the golden corpus copied 200 times (4,400 files);
    a regression guard with headroom for slow machines."""
    sources = [p.read_text() for p in sorted(CORPUS_DIR.glob("*.chd"))] * 200
    start = time.perf_counter()
    for source in sources:
        tokenize(source)
        parse_class_headers(source)
    assert time.perf_counter() - start < 2.5
