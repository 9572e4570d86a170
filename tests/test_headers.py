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


@pytest.mark.parametrize("source, token, message", [
    ("class A { int<B> y; }", "<B>", "type arguments on primitive 'int'"),
    ("class A { <T> List<double<T>> f(); }", "<T>>",
     "type arguments on primitive 'double'"),
    ("class A<T> { T<String> x; }", "<String>",
     "type arguments on type variable 'T'"),
    ("class A<T> { Map<K, T<X>> m; }", "<X>",
     "type arguments on type variable 'T'"),
    ("class A { <U> U<X> m(); }", "<X>",
     "type arguments on type variable 'U'"),
    ("class A<T> extends B<T<X>> {}", "<X>",
     "type arguments on type variable 'T'"),
    ("class A<T> extends T {}", "T {",
     "type variable 'T' used as a supertype"),
    ("class A<T> implements I, T {}", "T {",
     "type variable 'T' used as a supertype"),
    ("class A<T> { class B extends T {} }", "T {}",
     "type variable 'T' used as a supertype"),
    ("package p; class A<T> { T.Inner f; }", "T.Inner",
     "member type selected from type variable 'T'"),
    ("class A<T> extends T.Inner {}", "T.Inner",
     "member type selected from type variable 'T'"),
    ("class A { <T> T.Inner f(X x); }", "T.Inner",
     "member type selected from type variable 'T'"),
    ("class A { <T> void f(T.X x); }", "T.X",
     "member type selected from type variable 'T'"),
    ("class A<T> { List<? extends T.X> f; }", "T.X",
     "member type selected from type variable 'T'"),
    ("class A<T> { class B { T.I f; } }", "T.I",
     "member type selected from type variable 'T'"),
])
def test_java_type_rules_are_parse_errors(source, token, message):
    """Type arguments on a primitive or a type variable, a type variable as
    a supertype, and a member type selected from a type variable are
    rejected at the offending token. They used to parse; the references
    were silently dropped, or with keep_external `T.Inner` became an
    external class."""
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_class_headers(source)
    assert (err.value.line, err.value.column) == (1, source.index(token) + 1)


def test_qualified_name_from_no_type_variable_parses():
    """Only a type variable in scope is rejected as a qualifier; bounds are
    not checked."""
    decls = parse_class_headers(
        "class B { T.Inner f; } class C<U> { T.Inner g; }"
        " class D<T, U extends T.X> {}")
    assert [refs(d.field_types) for d in decls] == [["T.Inner"], ["T.Inner"],
                                                    []]


def test_type_parameter_bounds_are_not_checked():
    """Bounds are parsed and thrown away, and no type variable is in scope in
    them; so a name that is a type variable of another class may take type
    arguments there."""
    decls = parse_class_headers(
        "class A<T> {} class B<U extends T<X>> { <V extends U<W>> V f(); }")
    assert [(d.fqn, d.type_params) for d in decls] == [
        ("A", {"T"}), ("B", {"U"})]
    assert decls[1].return_types == []


def test_intersection_bounds_are_parsed_and_discarded():
    """Each bound after `&` is parsed and thrown away like the first; the
    type variable is then in scope, and the other references are kept."""
    cls, method = parse_class_headers(
        "class A<T extends B & C> { T f; D g; }"
        " class E { <T extends B & java.util.List<C>> void f(T t); D h(); }")
    assert cls.type_params == {"T"}
    assert refs(cls.field_types) == ["D"]
    assert method.type_params == set()
    assert refs(method.param_types) == []
    assert refs(method.return_types) == ["D"]


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


def decls_of(source):
    return [(d.fqn, d.line, [r.flatten(True) for r in d.field_types],
             [r.flatten(True) for r in d.return_types]) for d in
            parse_class_headers(source)]


def test_bodies_and_initializers_hold_any_text():
    """Bodies and initializers are skipped unread, so they may hold any
    character; they used to be tokenized first, and `int x = -1;` failed
    with "unexpected character '-'"."""
    template = "class A {{ int x = {0}; B b = {0}, c; C m() {{ y = {0}; }} }}"
    for text in ["-1", "a + b", "!a", "a ? b : c", "#", "x -> x * 2",
                 "() -> { a -= 1; }", "new HashMap<B, C>()", "a | b % c ^ ~d"]:
        assert decls_of(template.format(text)) == decls_of(template.format(""))


@pytest.mark.parametrize("source, fields", [
    ("class A { java.util.Map<B,C> m = new java.util.HashMap<B,C>(); }",
     ["java.util.Map"]),
    ("class A { Map<B,C> m = new HashMap<B,C>(), n; }", ["Map", "Map"]),
    ("class A { T a = new T<A, B, C>(), /* c */ b = 1, c; }", ["T"] * 3),
    ("class A { Foo a = x < y, b; }", ["Foo", "Foo"]),
    ("class A { Foo a = f(x, y), // n\n b; }", ["Foo", "Foo"]),
    ("class A { B b = c, final d; }", ["B"]),
])
def test_initializer_comma_rule(source, fields):
    """A ',' at depth 0 ends an initializer only if declarator names follow,
    the last one followed by '=' or ';'. The first source used to fail
    with "expected ';', found '>'" at the comma in `<B,C>`. A modifier is
    no declarator name, so in the last source, which is not Java, the
    initializer runs to the ';'; it used to give two fields."""
    assert refs(parse_class_headers(source)[0].field_types) == fields


def test_long_generic_initializer_is_linear():
    """No ',' of the list ends the initializer, and each is looked at once;
    checking each one to the end of the list is quadratic, tens of seconds
    at this length."""
    names = ", ".join(f"A{i}" for i in range(20000))
    start = time.perf_counter()
    decl = parse_class_headers(f"class A {{ B b = new B<{names}>(); }}")[0]
    assert refs(decl.field_types) == ["B"]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("source, fields", [
    ("class A { static { x(); } B b; }", ["B"]),
    ("class A { ; B b; }", ["B"]),
    ("class A { { int[] x = {1, 2}; } ;; C c; D m() {}; }", ["C"]),
])
def test_initializer_block_and_empty_member(source, fields):
    """Both are ordinary Java; the first two used to fail with "expected
    type, found '{'" and "expected type, found ';'"."""
    assert refs(parse_class_headers(source)[0].field_types) == fields


def test_multi_name_field():
    decl = parse_class_headers("class A { Baz a, b; }")[0]
    assert refs(decl.field_types) == ["Baz", "Baz"]


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_class_headers("package p;\nclass A {\n  Baz ; \n}")
    assert err.value.line == 3


def test_syntax_error_before_a_later_stretch_wins():
    """Lexing stops after each '{' and '=', so a syntax error reported before
    the next stop comes first; the lexical error at '%' used to win."""
    with pytest.raises(ParseError, match="expected ';', found 'class'") as err:
        parse_class_headers("package p class A { % }")
    assert (err.value.line, err.value.column) == (1, 11)


@pytest.mark.parametrize("source, opener, message", [
    ("class A { void m() { x(); ", "{ x", "unterminated block"),
    ("class A { B b = c ", "=", "unterminated field initializer"),
])
def test_unterminated_skip_reported_at_its_opener(source, opener, message):
    """They used to be reported at the end of input."""
    with pytest.raises(ParseError, match=message) as err:
        parse_class_headers(source)
    assert (err.value.line, err.value.column) == (1, source.index(opener) + 1)


@pytest.mark.parametrize("source, error", [
    ("class A { B b = x); C c; D d = (y; }", "1:18: expected ';', found ')'"),
    ("class A { B b = c } ", "1:19: expected ';', found '}'"),
])
def test_initializer_ends_at_a_stray_closer(source, error):
    """A closer that opens nothing ends an initializer, as a ';' at depth 0
    does, and is reported there: the skip does not run on past the ';' and
    swallow the members after it (`C c` above)."""
    with pytest.raises(ParseError) as err:
        parse_class_headers(source)
    assert str(err.value) == error


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


@pytest.mark.parametrize("source, fields", [
    ("@A(x /* ) */) class A { B b; }", ["B"]),
    ("@A(x // )\n) class A { @C(/* \" */) B b; }", ["B"]),
])
def test_comments_in_annotation_arguments_are_comments(source, fields):
    """As in Java; the first source used to fail with "unexpected character
    '*'", the ')' in the comment closing the annotation."""
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

def token_kind(text):
    """The reference tokenizer's kind of a token, from its text alone: the
    end of input is empty, a literal starts with a digit or a quote, an
    identifier with any other word character or '$', and punctuation is the
    rest."""
    if text == "":
        return "eof"
    if text[0].isdigit() or text[0] in "\"'":
        return "literal"
    if re.match(r"[\w$]", text[0]):
        return "ident"
    return "punct"


def tokenize_all(source, filename=None):
    """Every token of source, bodies and initializers included: tokenize
    resumed after each '{' or '=' it stops at."""
    tokens = tokenize(source, filename)
    while tokens[-1][0]:
        tokens += tokenize(source, filename, tokens[-1][1] + 1)
    return tokens


def token_stream(source):
    """(kind, text, line, col) per token, or the ParseError as a tuple."""
    try:
        return [(token_kind(text), text, *position(source, offset))
                for text, offset in tokenize_all(source, "f.chd")]
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


# One atom of an annotation's argument list: a comment, a parenthesis or a
# whole string or char literal; every other character is skipped.
ARGUMENT_ATOM = re.compile(
    r"""//[^\n]*|/\*.*?\*/|[()]|"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*'""",
    re.DOTALL)


def never_closes(text):
    """True if the '(' that text starts with has no matching ')', comments
    and literals counting as atoms."""
    depth = 0
    for atom in ARGUMENT_ATOM.finditer(text):
        depth += (atom.group() == "(") - (atom.group() == ")")
        if depth == 0:
            return False
    return True


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
    """Same stream or the same ParseError, apart from two documented fixes:
    a trailing backslash in a literal (IndexError before) and an annotation
    whose '(' never closes (silently swallowed before)."""
    got = token_stream(source)
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


# Class names come first, so that skipped text holding newlines moves no
# ClassDecl.line.
SKIPPED_TEXT_TEMPLATE = (
    "package p; class A<T> extends B {{ class In {{ I i = {0}; }}\n"
    "  C c = {0}; D d = {0}, e; F m(G g) {{{0}}}\n"
    "  A(H h) throws E {{{0}}} static {{{0}}} T t = {0};\n}}")


@given(st.text(st.characters(exclude_characters="()[]{}\"'/;,")))
@settings(max_examples=200, deadline=None)
def test_skipped_text_leaves_the_declarations(text):
    """Bodies and initializers are skipped unread: any contents without a
    bracket, quote, '/', ';' or ',' give the ClassDecls of empty ones."""
    assert (parse_class_headers(SKIPPED_TEXT_TEMPLATE.format(text))
            == parse_class_headers(SKIPPED_TEXT_TEMPLATE.format("")))


def test_extraction_throughput_bound():
    """Tokenize and parse the golden corpus copied 200 times (4,400 files);
    a regression guard with headroom for slow machines."""
    sources = [p.read_text() for p in sorted(CORPUS_DIR.glob("*.chd"))] * 200
    start = time.perf_counter()
    for source in sources:
        tokenize_all(source)
        parse_class_headers(source)
    assert time.perf_counter() - start < 2.5
