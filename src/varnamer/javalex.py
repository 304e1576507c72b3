r"""Lexical analysis of Java function source.

A full Java grammar is deliberately out of scope: declarations of local
variables and parameters are recognized with token-level heuristics
(``Type ident`` at statement start, ``for (Type ident``, parameter lists,
``catch`` clauses, try-with-resources). Comments and string literals are
lexed as single tokens and therefore never scanned for identifier
occurrences.

``lex`` is one regular expression, ``_TOKEN_RE``, whose alternatives are
tried in this order at each token start:

- ``//`` comment, up to (not including) the next newline;
- ``/*`` comment, up to the first ``*/`` after the opening two characters;
- text block, from three double quotes up to the next three, as one
  string token;
- ``"`` string and ``'`` char literal;
- word: ``(?:[^\W\d]|\$)[\w$]*``, a Unicode word character that is not
  a decimal digit (a letter or ``_``) or ``$``, then any word characters
  or ``$``. This approximates Java's identifier rule
  (``Character.isJavaIdentifierStart``/``Part``), so ``résumé`` and
  ``größe`` are one word each; a word in ``JAVA_KEYWORDS`` is a keyword;
- number (``_NUMBER_RE``; ``\d`` is any Unicode decimal digit);
- ``...``, ``::`` and ``->`` as single tokens;
- any other non-whitespace character as a one-character punct token.

In a text block, string or char literal a backslash escapes the next
character, so an escaped quote does not close a text block. Whitespace
is what ``str.isspace`` accepts. An unterminated comment, text block,
string or char literal, or one ending in a lone backslash, runs to the
end of the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import MalformedCode

JAVA_KEYWORDS = frozenset({
    "abstract", "assert", "boolean", "break", "byte", "case", "catch",
    "char", "class", "const", "continue", "default", "do", "double",
    "else", "enum", "extends", "final", "finally", "float", "for",
    "goto", "if", "implements", "import", "instanceof", "int",
    "interface", "long", "native", "new", "package", "private",
    "protected", "public", "return", "short", "static", "strictfp",
    "super", "switch", "synchronized", "this", "throw", "throws",
    "transient", "try", "void", "volatile", "while",
    "true", "false", "null", "var", "record", "yield",
})

# Keywords that may start a type expression.
PRIMITIVE_TYPES = frozenset({
    "boolean", "byte", "short", "int", "long", "char", "float", "double",
    "var",
})

# Modifiers that may precede a declaration.
DECL_MODIFIERS = frozenset({"final", "static", "transient", "volatile"})

IDENT = "ident"
KEYWORD = "keyword"
NUMBER = "number"
STRING = "string"
CHAR = "char"
COMMENT = "comment"
PUNCT = "punct"

_NUMBER_RE = re.compile(
    r"0[xX][0-9a-fA-F_]+[lL]?"
    r"|0[bB][01_]+[lL]?"
    r"|\d[\d_]*\.?[\d_]*(?:[eE][+-]?\d+)?[fFdDlL]?"
    r"|\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?"
)
# Each group is named after the token kind it yields (a keyword matches the
# IDENT group). The whitespace after a token is consumed with it, so every
# match starts where the previous one ended: a leading ``\s*`` would instead
# rescan trailing whitespace from each of its positions (quadratic time).
# ``...``, ``::`` and ``->`` stay whole because splitting them would confuse
# the declaration heuristics (varargs, method refs, lambdas).
_TOKEN_RE = re.compile(
    rf"""(?:
      (?P<{COMMENT}> //[^\n]* | /\*[\s\S]*?(?:\*/|\Z) )
    | (?P<{STRING}> \"\"\"(?:[^"\\]|\\[\s\S]|"(?!""))*(?:\"\"\"|\\?\Z)
                  | "(?:[^"\\]|\\[\s\S])*(?:"|\\?\Z) )
    | (?P<{CHAR}> '(?:[^'\\]|\\[\s\S])*(?:'|\\?\Z) )
    | (?P<{IDENT}> (?:[^\W\d]|\$)[\w$]* )
    | (?P<{NUMBER}> {_NUMBER_RE.pattern} )
    | (?P<{PUNCT}> \.\.\. | :: | -> | \S )
    )\s*""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


def lex(code: str) -> list[Token]:
    """Split Java source into tokens with character offsets (see the module
    docstring for the rules)."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(code, len(code) - len(code.lstrip())):
        kind = m.lastgroup
        text = m[kind]
        start = m.start()
        if kind == IDENT and text in JAVA_KEYWORDS:
            kind = KEYWORD
        append(Token(kind, text, start, start + len(text)))
    return tokens


def check_braces(tokens: list[Token]) -> None:
    depth = 0
    for tok in tokens:
        if tok.kind == PUNCT:
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                if depth < 0:
                    raise MalformedCode(f"unmatched '}}' at offset {tok.start}")
    if depth != 0:
        raise MalformedCode(f"{depth} unclosed '{{'")


@dataclass(frozen=True)
class VariableOccurrence:
    """A declared variable plus every span where it is referenced."""

    name: str
    spans: tuple[tuple[int, int], ...]


class _DeclScanner:
    """Finds local-variable and parameter declarations in a token stream."""

    def __init__(self, tokens: list[Token]):
        self.toks = [t for t in tokens if t.kind != COMMENT]
        self.declared: dict[str, int] = {}       # name -> first decl token index
        self.type_positions: set[int] = set()    # IDENT indices used as type names

    def scan(self) -> None:
        signature = self._signature()
        if signature is not None:
            open_paren, first_brace = signature
            self._scan_signature_params(open_paren)
            self._scan_statements(first_brace + 1)
        else:
            self._scan_statements(0)

    # -- helpers ------------------------------------------------------------

    def _tok(self, i: int) -> Token | None:
        return self.toks[i] if 0 <= i < len(self.toks) else None

    def _is_punct(self, i: int, text: str) -> bool:
        t = self._tok(i)
        return t is not None and t.kind == PUNCT and t.text == text

    def _declare(self, i: int) -> None:
        tok = self.toks[i]
        if tok.text not in self.declared:
            self.declared[tok.text] = i

    def _skip_annotations_and_modifiers(self, i: int) -> int:
        while True:
            t = self._tok(i)
            if t is None:
                return i
            if t.kind == PUNCT and t.text == "@":
                i += 1
                t = self._tok(i)
                if t is not None and t.kind == IDENT:
                    i += 1
                    # qualified annotation name
                    while self._is_punct(i, ".") and (nxt := self._tok(i + 1)) and nxt.kind == IDENT:
                        i += 2
                    if self._is_punct(i, "("):
                        i = self._skip_balanced(i, "(", ")")
                continue
            if t.kind == KEYWORD and t.text in DECL_MODIFIERS:
                i += 1
                continue
            return i

    def _skip_balanced(self, i: int, open_: str, close: str) -> int:
        depth = 0
        while i < len(self.toks):
            if self._is_punct(i, open_):
                depth += 1
            elif self._is_punct(i, close):
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return i

    def _parse_type(self, i: int) -> tuple[int, list[int]] | None:
        """Return (index just after a plausible type expression, ident
        indices it consumed), else None. The caller commits the consumed
        indices as type positions only if the whole declaration matches."""
        t = self._tok(i)
        if t is None:
            return None
        if t.kind == KEYWORD and t.text in PRIMITIVE_TYPES:
            consumed_idents: list[int] = []
            i += 1
        elif t.kind == IDENT:
            consumed_idents = [i]
            i += 1
            while self._is_punct(i, ".") and (nxt := self._tok(i + 1)) and nxt.kind == IDENT:
                consumed_idents.append(i + 1)
                i += 2
        else:
            return None
        j = self._parse_generic_args(i, consumed_idents)
        if j is not None:
            i = j
        while self._is_punct(i, "[") and self._is_punct(i + 1, "]"):
            i += 2
        if self._is_punct(i, "..."):
            i += 1
        return i, consumed_idents

    def _parse_generic_args(self, i: int, consumed: list[int]) -> int | None:
        """Consume ``<...>`` if its contents look like type arguments."""
        if not self._is_punct(i, "<"):
            return None
        depth = 0
        j = i
        idents: list[int] = []
        while j < len(self.toks):
            t = self.toks[j]
            if t.kind == PUNCT and t.text == "<":
                depth += 1
            elif t.kind == PUNCT and t.text == ">":
                depth -= 1
                if depth == 0:
                    consumed.extend(idents)
                    return j + 1
            elif t.kind == IDENT:
                idents.append(j)
            elif t.kind == KEYWORD and t.text in (PRIMITIVE_TYPES | {"extends", "super"}):
                pass
            elif t.kind == PUNCT and t.text in {",", ".", "?", "[", "]", "&"}:
                # `&&` never appears inside type arguments; plain `&` does
                # (intersection types), so a doubled ampersand rejects.
                if t.text == "&" and self._is_punct(j + 1, "&"):
                    return None
            else:
                return None
            j += 1
        return None

    def _try_declaration(self, i: int, stop: set[str]) -> None:
        """Try to match ``[mods] Type name (= | , | ; | ) | :)`` at index i."""
        i = self._skip_annotations_and_modifiers(i)
        parsed = self._parse_type(i)
        if parsed is None:
            return
        after_type, consumed_idents = parsed
        t = self._tok(after_type)
        if t is None or t.kind != IDENT:
            return
        name_idx = after_type
        j = name_idx + 1
        while self._is_punct(j, "[") and self._is_punct(j + 1, "]"):
            j += 2
        nxt = self._tok(j)
        if nxt is None or nxt.kind != PUNCT or nxt.text not in stop:
            return
        self.type_positions.update(consumed_idents)
        self._declare(name_idx)
        if nxt.text in {"=", ","}:
            self._scan_extra_declarators(j)

    def _scan_extra_declarators(self, i: int) -> None:
        """Handle ``int a = 1, b = 2;`` — commas at depth 0 introduce names."""
        depth = 0
        while i < len(self.toks):
            t = self.toks[i]
            if t.kind == PUNCT:
                if t.text in "([{":
                    depth += 1
                elif t.text in ")]}":
                    if depth == 0:
                        return
                    depth -= 1
                elif t.text == ";" and depth == 0:
                    return
                elif t.text == "," and depth == 0:
                    nxt = self._tok(i + 1)
                    after = self._tok(i + 2)
                    if (nxt is not None and nxt.kind == IDENT and after is not None
                            and after.kind == PUNCT and after.text in {"=", ",", ";"}):
                        self._declare(i + 1)
            i += 1

    def _signature(self) -> tuple[int, int] | None:
        """Locate a ``name(params) [throws ...] {`` signature, if any.

        Returns (open-paren index, first-brace index). A paren group owned
        by a control keyword (``for (...) {``) is not a signature.
        """
        first_brace = None
        for idx, t in enumerate(self.toks):
            if t.kind == PUNCT and t.text == "{":
                first_brace = idx
                break
        if first_brace is None:
            return None
        # Walk back over an optional throws clause.
        j = first_brace - 1
        while j >= 0 and (
            self.toks[j].kind == IDENT
            or (self.toks[j].kind == KEYWORD and self.toks[j].text == "throws")
            or (self.toks[j].kind == PUNCT and self.toks[j].text in {",", "."})
        ):
            j -= 1
        if j < 0 or not self._is_punct(j, ")"):
            return None
        depth = 0
        open_paren = None
        for idx in range(j, -1, -1):
            t = self.toks[idx]
            if t.kind == PUNCT and t.text == ")":
                depth += 1
            elif t.kind == PUNCT and t.text == "(":
                depth -= 1
                if depth == 0:
                    open_paren = idx
                    break
        if open_paren is None or open_paren == 0:
            return None
        before = self.toks[open_paren - 1]
        if before.kind != IDENT:
            return None
        return open_paren, first_brace

    def _scan_signature_params(self, open_paren: int) -> None:
        """Parameters of the function signature paren group."""
        # Split the parenthesized region at top-level commas; the trailing
        # identifier of each non-empty segment is a parameter name. Angle
        # brackets nest too: inside a parameter list `<` is always generics.
        i = open_paren + 1
        depth = 1
        segment: list[int] = []
        while i < len(self.toks) and depth > 0:
            t = self.toks[i]
            if t.kind == PUNCT and t.text in {"(", "[", "{", "<"}:
                depth += 1
            elif t.kind == PUNCT and t.text in {")", "]", "}", ">"}:
                depth -= 1
                if depth == 0:
                    self._declare_trailing_param(segment)
                    break
            if depth == 1 and t.kind == PUNCT and t.text == ",":
                self._declare_trailing_param(segment)
                segment = []
            else:
                segment.append(i)
            i += 1

    def _declare_trailing_param(self, segment: list[int]) -> None:
        # Strip trailing [] pairs (C-style array declarator).
        while (len(segment) >= 2
               and self.toks[segment[-1]].kind == PUNCT and self.toks[segment[-1]].text == "]"
               and self.toks[segment[-2]].kind == PUNCT and self.toks[segment[-2]].text == "["):
            segment = segment[:-2]
        if len(segment) < 2:
            return
        last = segment[-1]
        if self.toks[last].kind != IDENT:
            return
        # Mark everything before the name as type material so a same-named
        # variable does not pick up those spans.
        for idx in segment[:-1]:
            if self.toks[idx].kind == IDENT:
                self.type_positions.add(idx)
        self._declare(last)

    def _scan_statements(self, body_start: int) -> None:
        toks = self.toks
        starts = {"{", "}", ";", ":"}
        for i in range(body_start, len(toks)):
            prev = toks[i - 1] if i > 0 else None
            at_start = i == body_start or (
                prev is not None and prev.kind == PUNCT and prev.text in starts
            )
            if at_start:
                self._try_declaration(i, stop={"=", ";", ",", ":"})
            t = toks[i]
            if t.kind == KEYWORD and t.text in {"for", "try", "catch"} and self._is_punct(i + 1, "("):
                self._try_declaration(i + 2, stop={"=", ";", ",", ":", ")"})


def extract_variables(code: str) -> list[VariableOccurrence]:
    """Find declared local variables/parameters and all their reference spans.

    Raises MalformedCode on empty input or unbalanced braces. Identifiers
    after ``.`` (field access) or followed by ``(`` (calls), and identifiers
    in type position, are not counted as occurrences.
    """
    if not code.strip():
        raise MalformedCode("empty input")
    scanner = _scan(code)
    declared = sorted(scanner.declared, key=scanner.declared.__getitem__)
    spans = _occurrence_spans(scanner.toks, declared, scanner.type_positions)
    return [VariableOccurrence(name=name, spans=tuple(spans[name])) for name in declared]


def _scan(code: str) -> _DeclScanner:
    """Lex ``code`` once, check its braces and find its declarations."""
    tokens = lex(code)
    check_braces(tokens)
    scanner = _DeclScanner(tokens)
    scanner.scan()
    return scanner


def _occurrence_spans(
    toks: list[Token], names: list[str], type_positions: set[int],
) -> dict[str, list[tuple[int, int]]]:
    """Spans of each of ``names`` as a plain identifier, in one sweep: not at
    an index in ``type_positions``, not after ``.``, not before ``(``."""
    spans: dict[str, list[tuple[int, int]]] = {name: [] for name in names}
    last = len(toks) - 1
    for i, (kind, text, start, end) in enumerate(toks):
        if kind != IDENT or text not in spans or i in type_positions:
            continue
        if i > 0 and toks[i - 1].kind == PUNCT and toks[i - 1].text == ".":
            continue
        if i < last and toks[i + 1].kind == PUNCT and toks[i + 1].text == "(":
            continue
        spans[text].append((start, end))
    return spans


def find_identifier_occurrences(code: str, name: str) -> list[tuple[int, int]]:
    """Spans where ``name`` occurs as a plain identifier (not a field access
    or call). Falls back to this rule when ``name`` is not a declared
    variable; declared variables additionally exclude type positions."""
    scanner = _scan(code)
    type_positions = scanner.type_positions if name in scanner.declared else set()
    return _occurrence_spans(scanner.toks, [name], type_positions)[name]


def substitute(code: str, spans: list[tuple[int, int]], replacement: str) -> str:
    """Replace every span with ``replacement``; spans must be sorted and
    non-overlapping."""
    parts = []
    prev = 0
    for start, end in spans:
        parts.append(code[prev:start])
        parts.append(replacement)
        prev = end
    parts.append(code[prev:])
    return "".join(parts)
