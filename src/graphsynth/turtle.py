"""Parser and serializer for the Turtle-subset ontology interchange format.

Supported surface: ``@prefix`` and ``@base`` directives, IRIs in angle
brackets, prefixed names, the ``a`` keyword, ``;`` and ``,`` lists,
string/integer/decimal/boolean literals, ``^^`` datatypes, ``@lang`` tags
passed through, and ``#`` comments. Deliberately out: blank-node property
lists, collections, and multiline strings. Every malformed input raises a
TurtleParseError carrying line and column, among them a string escape that
names no Unicode character and an IRI the terms module rejects.

The lexer keeps only offsets: a token and the trivia before it are one
match of one combined pattern, and the line and column of an error are
counted from its offset when it is raised. The IRI of an IRIREF or
prefixed-name token is built once per text while the same directives are
in scope.
"""

from __future__ import annotations

import re

from graphsynth import vocab
from graphsynth.errors import MalformedTermError, TurtleParseError
from graphsynth.quadstore import QuadStore
from graphsynth.terms import (
    OWL,
    RDF,
    RDFS,
    RDF_LANG_STRING,
    RDF_TYPE,
    XSD,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    Blank,
    Iri,
    Literal,
    Term,
)

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")

_INTEGER = re.compile(r"^[+-]?[0-9]+$")
_DECIMAL = re.compile(r"^[+-]?[0-9]*\.[0-9]+$")

# Token kinds, each also the name of its group in _TOKEN.
_IRIREF = "IRIREF"
_PNAME = "PNAME"
_BLANK = "BLANK"
_STRING = "STRING"
_QUOTE = "QUOTE"
_NUMBER = "NUMBER"
_IDENT = "IDENT"
_PUNCT = "PUNCT"
_DIRECTIVE = "DIRECTIVE"
_LANGTAG = "LANGTAG"
_EOF = "EOF"

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "'": "'", "\\": "\\"}
_HEX = re.compile(r"[0-9A-Fa-f]+")
# Whitespace and comments. A comment must run to its line's end, so that no
# backtracking into it can find a token inside it.
_TRIVIA = re.compile(r"[ \t\r\n]*(?:#[^\n]*(?:\n|\Z)[ \t\r\n]*)*")
# The trivia before a token, then the token: one alternative per kind, in
# priority order, so the first that matches names the kind. A string
# without escapes is one STRING match; QUOTE starts any other string, which
# _lex_string scans.
_TOKEN = re.compile(
    _TRIVIA.pattern
    + "(?:"
    + "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            (_STRING, r"\"[^\"\\\n]*\"|'[^'\\\n]*'"),
            (_QUOTE, r"[\"']"),
            (_IRIREF, r"<[^<>\"{}|^`\\\x00-\x20]*>"),
            (_DIRECTIVE, r"@(?:prefix|base)\b"),
            (_LANGTAG, r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
            (_BLANK, r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"),
            (_NUMBER, r"[+-]?(?:[0-9]*\.[0-9]+|[0-9]+)"),
            # Prefixed name: prefix part may be empty; local part may be empty but
            # never ends in '.' so the statement terminator stays unambiguous.
            (_PNAME, r"(?:[A-Za-z][A-Za-z0-9_.-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?"),
            (_IDENT, r"[A-Za-z][A-Za-z0-9_-]*"),
            (_PUNCT, r"\^\^|[.;,]"),
        )
    )
    + ")"
)
# The run of a string body up to its closing quote, an escape or a newline.
_STRING_RUN = {'"': re.compile(r'[^"\\\n]*'), "'": re.compile(r"[^'\\\n]*")}
_A = Iri(RDF_TYPE)


class OntologyDocument:
    """One parsed ontology file: directives plus its (subject, predicate, object) statements in document order."""

    __slots__ = ("base", "prefixes", "statements")

    def __init__(self):
        self.base: str | None = None
        self.prefixes: dict[str, str] = {}
        self.statements: list[tuple[Iri | Blank, Iri, Term]] = []


def _error_at(text: str, pos: int, message: str) -> TurtleParseError:
    """A parse error at offset `pos`; line and column are counted only here."""
    return TurtleParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _lex_string(text: str, start: int) -> tuple[str, int]:
    """The value of the string whose quote is at `start`, and the offset after it."""
    quote = text[start]
    run = _STRING_RUN[quote]
    parts = []
    pos = start + 1
    while True:
        end = run.match(text, pos).end()
        parts.append(text[pos:end])
        pos = end
        if pos >= len(text):
            raise _error_at(text, start, "unterminated string")
        ch = text[pos]
        if ch == quote:
            return "".join(parts), pos + 1
        if ch == "\n":
            raise _error_at(text, pos, "newline inside string")
        if pos + 1 >= len(text):
            raise _error_at(text, pos, "dangling escape")
        esc = text[pos + 1]
        if esc == "u" or esc == "U":
            width = 4 if esc == "u" else 8
            digits = text[pos + 2 : pos + 2 + width]
            code = int(digits, 16) if len(digits) == width and _HEX.fullmatch(digits) else -1
            # chr() takes no code point past U+10FFFF, and a surrogate is no
            # character: UTF-8 cannot encode it when the text is written out.
            if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise _error_at(text, pos, "bad unicode escape")
            parts.append(chr(code))
            pos += 2 + width
        elif esc in _ESCAPES:
            parts.append(_ESCAPES[esc])
            pos += 2
        else:
            raise _error_at(text, pos, f"unknown escape '\\{esc}'")


class _Parser:
    """Recursive descent over one token of lookahead: `kind`, `text` and `pos`.

    `text` is the token's source text, or a string's value; `pos` is its
    start offset, and `end` the offset where the next token's trivia starts.
    """

    def __init__(self, source: str):
        self.source = source
        self.doc = OntologyDocument()
        # IRIREF or prefixed-name text -> its Iri, under the directives so far.
        self.iris: dict[str, Iri] = {}
        self.end = 0
        self._bump()

    def _bump(self):
        source = self.source
        m = _TOKEN.match(source, self.end)
        if m is None:
            self.pos = pos = _TRIVIA.match(source, self.end).end()
            if pos < len(source):
                raise _error_at(source, pos, f"unexpected character {source[pos]!r}")
            self.kind, self.text = _EOF, ""
            return
        self.kind = m.lastgroup
        self.pos = pos = m.start(self.kind)
        if self.kind == _STRING:
            self.text = source[pos + 1 : m.end() - 1]
            self.end = m.end()
        elif self.kind == _QUOTE:
            self.kind = _STRING
            self.text, self.end = _lex_string(source, pos)
        else:
            self.text = m.group(self.kind)
            self.end = m.end()

    def _error(self, message: str, pos: int | None = None) -> TurtleParseError:
        return _error_at(self.source, self.pos if pos is None else pos, message)

    def _iri(self, value: str, pos: int) -> Iri:
        try:
            return Iri(value)
        except MalformedTermError as exc:
            raise self._error(str(exc), pos) from exc

    def _expect_punct(self, text: str):
        if self.kind != _PUNCT or self.text != text:
            raise self._error(f"expected '{text}', got {self.text!r}")
        self._bump()

    def parse(self) -> OntologyDocument:
        while self.kind != _EOF:
            if self.kind == _DIRECTIVE:
                self._parse_directive()
            else:
                self._parse_triples()
        return self.doc

    def _parse_directive(self):
        which = self.text
        self.iris.clear()
        self._bump()
        if which == "@prefix":
            if self.kind != _PNAME or not self.text.endswith(":") or self.text.count(":") != 1:
                raise self._error("expected 'prefix:' after @prefix")
            prefix = self.text[:-1]
            self._bump()
            if self.kind != _IRIREF:
                raise self._error("expected <iri> in @prefix directive")
            self.doc.prefixes[prefix] = self._resolve_iriref(self.text)
            self._bump()
        else:
            if self.kind != _IRIREF:
                raise self._error("expected <iri> in @base directive")
            self.doc.base = self._resolve_iriref(self.text)
            self._bump()
        self._expect_punct(".")

    def _expand(self, kind: str, text: str) -> str:
        """The IRI an IRIREF or prefixed-name token stands for."""
        if kind == _IRIREF:
            return self._resolve_iriref(text)
        prefix, _, local = text.partition(":")
        namespace = self.doc.prefixes.get(prefix)
        if namespace is None:
            raise self._error(f"undeclared prefix '{prefix}:'")
        return namespace + local

    def _resolve_iriref(self, raw: str) -> str:
        value = raw[1:-1]
        if _SCHEME.match(value):
            return value
        if self.doc.base is None:
            raise self._error(f"relative IRI <{value}> with no @base in scope")
        return self.doc.base + value

    def _parse_term(self, position: str) -> Term:
        kind, text, pos = self.kind, self.text, self.pos
        if kind == _IRIREF or kind == _PNAME:
            iri = self.iris.get(text)
            if iri is None:
                self.iris[text] = iri = self._iri(self._expand(kind, text), pos)
            self._bump()
            return iri
        if kind == _BLANK:
            if position == "predicate":
                raise self._error("blank node not allowed as predicate")
            self._bump()
            return Blank(text[2:])
        if position == "object":
            if kind == _STRING:
                self._bump()
                return self._finish_literal(text)
            if kind == _NUMBER:
                self._bump()
                return Literal(text, XSD_DECIMAL if "." in text else XSD_INTEGER)
            if kind == _IDENT and text in ("true", "false"):
                self._bump()
                return Literal(text, XSD_BOOLEAN)
        raise self._error(f"expected {position} term, got {text!r}")

    def _finish_literal(self, lexical: str) -> Literal:
        if self.kind == _LANGTAG:
            tag = self.text[1:]
            self._bump()
            return Literal(lexical, RDF_LANG_STRING, tag)
        if self.kind == _PUNCT and self.text == "^^":
            self._bump()
            datatype = self._parse_term("datatype")
            if not isinstance(datatype, Iri):
                raise self._error("datatype must be an IRI")
            return Literal(lexical, datatype.value)
        return Literal(lexical, XSD_STRING)

    def _parse_verb(self) -> Iri:
        if self.kind == _IDENT and self.text == "a":
            self._bump()
            return _A
        term = self._parse_term("predicate")
        if not isinstance(term, Iri):
            raise self._error("predicate must be an IRI")
        return term

    def _parse_triples(self):
        subject = self._parse_term("subject")
        statements = self.doc.statements
        while True:
            verb = self._parse_verb()
            while True:
                statements.append((subject, verb, self._parse_term("object")))
                if self.kind == _PUNCT and self.text == ",":
                    self._bump()
                    continue
                break
            if self.kind == _PUNCT and self.text == ";":
                self._bump()
                # A dangling ';' before '.' is tolerated, as in full Turtle.
                if self.kind == _PUNCT and self.text == ".":
                    break
                continue
            break
        self._expect_punct(".")


def parse_document(text: str) -> OntologyDocument:
    """Parse subset-Turtle text into (subject, predicate, object) triples.

    The grammar admits only an IRI or blank subject and an IRI predicate,
    and builds each term through its constructor, so every triple is one a
    `Quad` accepts. Duplicate triples are preserved here; the store
    deduplicates on insert.
    """
    if not isinstance(text, str):
        raise TurtleParseError("input must be text", 1, 1)
    return _Parser(text).parse()


# Prefixes the serializer will try to compact against, in emission order.
WELL_KNOWN_PREFIXES: tuple[tuple[str, str], ...] = (
    ("rdf", RDF),
    ("rdfs", RDFS),
    ("owl", OWL),
    ("xsd", XSD),
    ("gs", vocab.GS),
    ("kb", vocab.KB),
    ("onto", vocab.ONTOLOGY),
    ("pla", vocab.PLA),
    ("plr", vocab.PLR),
)

_PN_LOCAL_OK = re.compile(r"^(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?$")
_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _compact(iri: str) -> str:
    for prefix, namespace in WELL_KNOWN_PREFIXES:
        if iri.startswith(namespace):
            local = iri[len(namespace):]
            if _PN_LOCAL_OK.match(local):
                return f"{prefix}:{local}"
    return f"<{iri}>"


def _quote(lexical: str) -> str:
    return '"' + "".join(_STRING_ESCAPES.get(ch, ch) for ch in lexical) + '"'


def _format_term(term: Term) -> str:
    if isinstance(term, Iri):
        return _compact(term.value)
    if isinstance(term, Blank):
        return f"_:{term.id}"
    if term.language_tag is not None:
        return f"{_quote(term.lexical)}@{term.language_tag}"
    if term.datatype == XSD_STRING:
        return _quote(term.lexical)
    if term.datatype == XSD_INTEGER and _INTEGER.match(term.lexical):
        return term.lexical
    if term.datatype == XSD_DECIMAL and _DECIMAL.match(term.lexical):
        return term.lexical
    if term.datatype == XSD_BOOLEAN and term.lexical in ("true", "false"):
        return term.lexical
    return f"{_quote(term.lexical)}^^{_compact(term.datatype)}"


def serialize(store: QuadStore, graph: str) -> str:
    """Write one graph as subset-Turtle; parse(serialize(g)) yields g's quad set."""
    lines = [f"@prefix {prefix}: <{namespace}> ." for prefix, namespace in WELL_KNOWN_PREFIXES]
    lines.append("")
    for s, p, o, _ in sorted(store.quads(graph)):
        predicate = "a" if p.value == RDF_TYPE else _format_term(p)
        lines.append(f"{_format_term(s)} {predicate} {_format_term(o)} .")
    return "\n".join(lines) + "\n"
