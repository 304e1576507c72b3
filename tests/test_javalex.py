import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varnamer import corpus, javalex
from varnamer.errors import MalformedCode, VarnamerError


def spans_text(code, occurrence):
    return [code[a:b] for a, b in occurrence.spans]


class TestExtractVariables:
    def test_simple_declaration_and_use(self):
        code = "int count = 0; count++;"
        result = javalex.extract_variables(code)
        assert len(result) == 1
        assert result[0].name == "count"
        # hand-traced offsets: declaration at 4..9, increment at 15..20
        assert result[0].spans == ((4, 9), (15, 20))

    def test_no_declarations(self):
        assert javalex.extract_variables("void f(){}") == []

    def test_for_loop_and_preceding_declaration(self):
        code = "int sum=0; for(int i=0;i<n;i++){sum+=i;}"
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        assert set(by_name) == {"sum", "i"}
        assert len(by_name["i"].spans) == 4
        assert len(by_name["sum"].spans) == 2
        for occ in by_name.values():
            assert all(code[a:b] == occ.name for a, b in occ.spans)

    def test_parameters_are_variables(self):
        code = "int f(int first, String second) {\n  return first;\n}"
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        assert set(by_name) == {"first", "second"}
        assert len(by_name["first"].spans) == 2

    def test_strings_and_comments_not_scanned(self):
        code = (
            'int f() {\n'
            '  int count = 1; // count here\n'
            '  String s = "count";\n'
            '  /* count */\n'
            '  return count;\n'
            '}'
        )
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        assert len(by_name["count"].spans) == 2
        assert spans_text(code, by_name["count"]) == ["count", "count"]

    def test_method_calls_and_field_access_excluded(self):
        code = (
            "int f(Thing count) {\n"
            "  other.count = 1;\n"
            "  count();\n"
            "  return count;\n"
            "}"
        )
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        # declaration + the plain return use; not the field or the call
        assert len(by_name["count"].spans) == 2

    def test_multi_declarators(self):
        code = "int a = 1, b = 2, c;\nint d;\nuse(a, b, c, d);\n"
        names = {v.name for v in javalex.extract_variables(code)}
        assert names == {"a", "b", "c", "d"}

    def test_enhanced_for_and_generics(self):
        code = (
            "void f(Map<String, List<Integer>> table) {\n"
            "  for (Map.Entry<String, List<Integer>> entry : table.entrySet()) {\n"
            "    use(entry);\n"
            "  }\n"
            "}"
        )
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        assert set(by_name) == {"table", "entry"}
        assert len(by_name["entry"].spans) == 2

    def test_comparison_is_not_generics(self):
        code = "void f(int a, int b, int c, int d) { if (a < b && c > d) { a = d; } }"
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        assert set(by_name) == {"a", "b", "c", "d"}
        assert len(by_name["d"].spans) == 3  # param, comparison, assignment

    def test_empty_input_rejected(self):
        with pytest.raises(MalformedCode):
            javalex.extract_variables("   \n  ")

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(MalformedCode):
            javalex.extract_variables("void f() { if (x) { }")
        with pytest.raises(MalformedCode):
            javalex.extract_variables("void f() } {")

    def test_idempotent_and_pure(self):
        code = "int f(int x) {\n  int y = x;\n  return y;\n}"
        assert javalex.extract_variables(code) == javalex.extract_variables(code)

    def test_spans_slice_back_to_name(self, toy_functions):
        for code in toy_functions[:20]:
            for occ in javalex.extract_variables(code):
                assert all(code[a:b] == occ.name for a, b in occ.spans)


class TestFindOccurrences:
    def test_undeclared_name_found_lexically(self):
        code = "int f() { use(widget); widget = 3; }"
        spans = javalex.find_identifier_occurrences(code, "widget")
        assert [code[a:b] for a, b in spans] == ["widget", "widget"]

    def test_substitute_roundtrip(self):
        code = "int count = 0; count++;"
        spans = javalex.find_identifier_occurrences(code, "count")
        replaced = javalex.substitute(code, spans, "total")
        assert replaced == "int total = 0; total++;"
        back = javalex.substitute(
            replaced, javalex.find_identifier_occurrences(replaced, "total"), "count")
        assert back == code

    def test_text_block_is_not_renamed(self):
        block = '"""\n say "hi count" now\n """'
        code = f"String f(int count) {{ String s = {block}; return s + count; }}"
        spans = javalex.find_identifier_occurrences(code, "count")
        assert len(spans) == 2
        replaced = javalex.substitute(code, spans, "total")
        assert replaced == f"String f(int total) {{ String s = {block}; return s + total; }}"
        assert [t.text for t in javalex.lex(code) if t.kind == javalex.STRING] == [block]


class TestNonAsciiIdentifiers:
    def test_accented_name_is_not_split(self):
        code = "int f() {\n  int sum = 0;\n  int résumé = 1;\n  return sum + résumé;\n}"
        spans = javalex.find_identifier_occurrences(code, "sum")
        assert [code[a:b] for a, b in spans] == ["sum", "sum"]
        assert javalex.substitute(code, spans, "total") == (
            "int f() {\n  int total = 0;\n  int résumé = 1;\n  return total + résumé;\n}")

    def test_non_ascii_declaration_is_found(self):
        code = "int f(int a) {\n  int größe = a + 1;\n  return größe;\n}"
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        assert set(by_name) == {"a", "größe"}
        assert spans_text(code, by_name["größe"]) == ["größe", "größe"]

    def test_unicode_digit_is_a_number_not_a_name_start(self):
        kinds = [(t.kind, t.text) for t in javalex.lex("x٣ ٣x")]
        assert kinds == [(javalex.IDENT, "x٣"), (javalex.NUMBER, "٣"), (javalex.IDENT, "x")]


# --- the lexer against a character loop --------------------------------------

_REFERENCE_WORD = re.compile(r"(?:[^\W\d]|\$)[\w$]*")


def _reference_quoted_end(code, i, quote):
    j = i + len(quote)
    while j < len(code):
        if code[j] == "\\":
            j += 2
            continue
        if code.startswith(quote, j):
            return j + len(quote)
        j += 1
    return len(code)


def reference_lex(code):
    """The per-character loop ``javalex.lex`` replaced, with its word rule."""
    tokens = []
    i, n = 0, len(code)
    while i < n:
        ch = code[i]
        if ch.isspace():
            i += 1
            continue
        if code.startswith("//", i):
            j = code.find("\n", i)
            j = n if j < 0 else j
            kind = javalex.COMMENT
        elif code.startswith("/*", i):
            j = code.find("*/", i + 2)
            j = n if j < 0 else j + 2
            kind = javalex.COMMENT
        elif code.startswith('"""', i):
            j, kind = _reference_quoted_end(code, i, '"""'), javalex.STRING
        elif ch == '"':
            j, kind = _reference_quoted_end(code, i, '"'), javalex.STRING
        elif ch == "'":
            j, kind = _reference_quoted_end(code, i, "'"), javalex.CHAR
        elif m := _REFERENCE_WORD.match(code, i):
            j = m.end()
            kind = javalex.KEYWORD if m.group() in javalex.JAVA_KEYWORDS else javalex.IDENT
        elif m := javalex._NUMBER_RE.match(code, i):
            j, kind = m.end(), javalex.NUMBER
        else:
            op = next((op for op in ("...", "::", "->") if code.startswith(op, i)), ch)
            j, kind = i + len(op), javalex.PUNCT
        tokens.append((kind, code[i:j], i, j))
        i = j
    return tokens


_FRAGMENTS = [
    '"', "'", "\\", "\\\\", "//", "/*", "*/", "/*/", "...", "..", "::", "->", '"""',
    "\r\n", "\n", " ", "\t", "\xa0", "\x1c", "\u2028",
    "é", "ß", "größe", "résumé", "٣", "x٣", "²", "$", "_", "a1", "sum",
    "int ", "String ", "for (", "catch (", "final ", "@A ", "0x1F", "0b1", "1.5e3", ".5", "1_0L",
    ".", ";", "=", ",", "{", "}", "{}", "(", ")", "<", ">", "[]", ":", "void f(int x) {",
]
java_text = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.characters()), max_size=40,
).map("".join)

_EDGE_CASES = [
    "", "   ", "x   ", "/* open  ", "// to end\r\n x", '"open \\', '"a\\"b" c',
    "'\\'' x", '"""text\nblock"""', "a->b::c...d", ".5.5", "0x", "1e", "x\xa0\x1cy",
    "/*/ x */ y", "résumé=٣;", "\\",
]


class TestLexMatchesCharacterLoop:
    @pytest.mark.parametrize("code", _EDGE_CASES)
    def test_edge_cases(self, code):
        assert [tuple(t) for t in javalex.lex(code)] == reference_lex(code)

    def test_toy_functions(self, toy_functions):
        for code in toy_functions:
            assert [tuple(t) for t in javalex.lex(code)] == reference_lex(code)

    @settings(max_examples=400, deadline=None)
    @given(java_text)
    def test_any_text(self, code):
        assert [tuple(t) for t in javalex.lex(code)] == reference_lex(code)


@settings(max_examples=300, deadline=None)
@given(java_text, st.sampled_from(["x", "sum", "größe", "résumé", "int", "a1", ""]))
def test_front_end_raises_only_typed_errors(code, name):
    for call in (lambda: javalex.extract_variables(code),
                 lambda: javalex.find_identifier_occurrences(code, name),
                 lambda: corpus.adapt_record(code, 3, ["decoy", "other"])):
        try:
            call()
        except VarnamerError:
            pass


# --- all spans in one sweep ---------------------------------------------------

def reference_spans(toks, name, type_positions):
    """Spans of one name, one full sweep per name."""
    spans = []
    for i, t in enumerate(toks):
        if t.kind != javalex.IDENT or t.text != name or i in type_positions:
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.kind == javalex.PUNCT and prev.text == ".":
            continue
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        if nxt is not None and nxt.kind == javalex.PUNCT and nxt.text == "(":
            continue
        spans.append((t.start, t.end))
    return spans


_SPAN_CASES = [
    "int f(Point p) {\n  int x = p.x;\n  return x + p.x;\n}",
    "int f() {\n  int x = 1;\n  x();\n  return x;\n}",
    "void f(Item item) {\n  Item Item = item;\n  use(Item, Item.size());\n}",
    "void f() {\n  for (int i = 0; i < 3; i++) { use(i); }\n"
    "  for (int i = 0; i < 2; i++) { use(i); }\n}",
]


class TestOneSweepSpans:
    def _check(self, code):
        scanner = javalex._scan(code)
        variables = javalex.extract_variables(code)
        assert [v.name for v in variables] == sorted(scanner.declared, key=scanner.declared.get)
        for v in variables:
            expected = reference_spans(scanner.toks, v.name, scanner.type_positions)
            assert list(v.spans) == expected
            assert javalex.find_identifier_occurrences(code, v.name) == expected
        for t in scanner.toks:
            if t.kind == javalex.IDENT and t.text not in scanner.declared:
                assert (javalex.find_identifier_occurrences(code, t.text)
                        == reference_spans(scanner.toks, t.text, set()))

    @pytest.mark.parametrize("code", _SPAN_CASES)
    def test_hand_cases(self, code):
        self._check(code)

    def test_toy_functions(self, toy_functions):
        for code in toy_functions:
            self._check(code)

    def test_type_positions_are_not_spans_of_a_same_named_variable(self):
        code = _SPAN_CASES[2]
        by_name = {v.name: v for v in javalex.extract_variables(code)}
        # the declared name, the argument and the receiver of `.size()`; not
        # the parameter type nor the local's type
        starts = [code.index("Item Item") + 5, code.index("use(Item") + 4,
                  code.index("Item.size")]
        assert [a for a, _ in by_name["Item"].spans] == starts
