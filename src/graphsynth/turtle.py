"""Parser and serializer for the Turtle-subset ontology interchange format.

Supported surface: ``@prefix`` and ``@base`` directives, IRIs in angle
brackets, prefixed names, the ``a`` keyword, ``;`` and ``,`` lists,
string/integer/decimal/boolean literals, ``^^`` datatypes, ``@lang`` tags
passed through, and ``#`` comments. Deliberately out: blank-node property
lists, collections, and multiline strings. Every malformed input raises a
TurtleParseError carrying line and column, among them a string escape that
names no Unicode character and an IRI the terms module rejects.

The lexer is one `findall` of one pattern per document. Each match is the
trivia before a token and, in the pattern's one group, the token, so the
parser walks a list of strings and reads each token's kind from its text:
its first character, a ':' in it, its length. No offset is kept. An error
is located after the fact: the pattern is matched again up to the failing
token, and the line and column are counted from its offset. At that token
the error is what a lexer reading one token ahead would have raised first:
a stray character, a quote that opens no string, or a string with a bad
escape.

A prefix is scoped to its own document, so what is shared between the
documents of one load is keyed by the directives that bind it. A
`LoadState` holds one Iri per IRI and a tree of environments: each is the
base and prefix map a run of directives builds, reached from the one
before it by that directive's tokens, with its own table of the IRIREF and
prefixed-name tokens resolved under it. A document whose directives repeat
an earlier one's walks into the environments that one built, parsing no
directive and resolving no token again; only a directive that parses is
kept, so every error is raised as when the document is parsed alone.

A run of names, dots and numbers with no ':' after it that holds a second
name is lexed as one token, so that lexing stays linear in the run's
length. No valid document holds such a run past its second name; where the
parser reaches one, it puts the tokens the run holds in its place and reads
on, so messages and positions are those of lexing it name by name.
"""

from __future__ import annotations

import re

from graphsynth import vocab
from graphsynth.errors import MalformedTermError, TurtleParseError, position
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
    LABEL,
    Blank,
    Iri,
    Literal,
    Term,
)

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")

_INTEGER = re.compile(r"^[+-]?[0-9]+$")
_DECIMAL = re.compile(r"^[+-]?[0-9]*\.[0-9]+$")

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "'": "'", "\\": "\\"}
_HEX = re.compile(r"[0-9A-Fa-f]+")
# The trivia before a token (whitespace and comments), then, in the one group,
# the token: the first alternative that matches is the token. Alternatives
# whose first characters overlap keep their order (a prefixed name before an
# identifier, a directive before a language tag); the common kinds come
# first. A comment runs to its line's end, so no backtracking into it can
# find a token inside it; the group is optional, so the trivia at the end of
# the text is one match with an empty token and never gives a comment back.
# A string is matched whole, escapes and all; a quote that opens no string,
# like any character that starts no token, is a token of its own, which the
# parser never accepts.
# A run of names, dots and numbers with no ':' after it that holds a second
# name (`a.b`, `true.5x`) is one token: lexed name by name, each name would
# scan the rest of the run for a ':' in the prefixed-name alternative.
_PN_LOCAL = f"(?:{LABEL})?"
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*(?:\n|\Z)[ \t\r\n]*)*("
    # Prefixed name: its local part may be empty but never ends in '.', so
    # the statement terminator stays unambiguous.
    r"[A-Za-z][A-Za-z0-9_.-]*:" + _PN_LOCAL
    # Identifier (a, true, false), or a run holding a second name.
    + r"|[A-Za-z][A-Za-z0-9_-]*(?:\.[0-9_.-]*[A-Za-z][A-Za-z0-9_.-]*)?"
    r"|:" + _PN_LOCAL  # prefixed name with the empty prefix
    + r"|[;,]|\.(?![0-9])|\^\^"  # punctuation; '.' before a digit starts a number
    r"|\"[^\"\\\n]*(?:\\.[^\"\\\n]*)*\"|'[^'\\\n]*(?:\\.[^'\\\n]*)*'"  # string
    r"|<[^<>\"{}|^`\\\x00-\x20]*>"  # IRIREF
    r"|[+-]?(?:[0-9]*\.[0-9]+|[0-9]+)"  # number
    r"|@(?:prefix|base)\b"  # directive
    r"|@[A-Za-z]+(?:-[A-Za-z0-9]+)*"  # language tag
    r"|_:" + LABEL  # blank node
    + r"|."  # a stray character
    r")?"
)
# The tokens of such a run, as `_TOKEN` reads them where no ':' can follow:
# an identifier, a '.', a number, or a stray '_' or '-'.
_RUN_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_-]*|\.(?![0-9])|[+-]?(?:[0-9]*\.[0-9]+|[0-9]+)|.")
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
# The one-character tokens that are no stray: a letter, a digit, ':' and punctuation.
_ONE_CHAR_TOKENS = frozenset(_LETTERS + "0123456789:.;,")
# First characters, as sets: the empty token at the end is in every string.
_QUOTES = frozenset("\"'")
_PNAME_START = frozenset(_LETTERS + ":")
_DIGITS = frozenset("0123456789")
_SIGN_OR_DOT = frozenset("+-.")  # starts a number when more follows
# The first character of a token glued to a directive keyword that makes the
# keyword a language tag: a word character no language tag can hold.
_TAG_GLUE = re.compile(r"[^\WA-Za-z]")
# The run of a string body up to its closing quote, an escape or a newline.
_STRING_RUN = {'"': re.compile(r'[^"\\\n]*'), "'": re.compile(r"[^'\\\n]*")}


class OntologyDocument:
    """One parsed ontology file: directives plus its (subject, predicate, object) statements in document order.

    `base` and `prefixes` are those in scope at its end; `has_blank` tells
    whether any statement holds a blank node.
    """

    __slots__ = ("base", "prefixes", "statements", "has_blank")

    def __init__(self):
        self.base: str | None = None
        self.prefixes: dict[str, str] = {}
        self.statements: list[tuple[Iri | Blank, Iri, Term]] = []
        self.has_blank = False


class _Environment:
    """The base and prefix map a run of directives builds, and what has been resolved under them.

    `iris` maps each IRIREF or prefixed-name token resolved here to its
    Iri. `after` maps the tokens of a directive parsed here to the
    environment it builds; an environment is never changed once built.
    """

    __slots__ = ("base", "prefixes", "iris", "after")

    def __init__(self, base: str | None, prefixes: dict[str, str]):
        self.base = base
        self.prefixes = prefixes
        self.iris: dict[str, Iri] = {}
        self.after: dict[tuple[str, ...], _Environment] = {}


class LoadState:
    """What the documents of one load share: one Iri per IRI, and the environments their directives build.

    Every document starts in the empty environment `root`. A document whose
    directives repeat another's walks into the environments those built,
    parsing no directive and resolving no token again; an environment is
    reached only through the same directives in the same order, so a
    prefix stays scoped to the documents that declare it. `terms` maps an
    IRI to its Iri; a caller may seed it with the terms it compares against.
    """

    __slots__ = ("terms", "root", "a")

    def __init__(self, terms: dict[str, Iri] | None = None):
        self.terms = {} if terms is None else terms
        self.root = _Environment(None, {})
        self.a = self.terms.get(RDF_TYPE) or self.terms.setdefault(RDF_TYPE, Iri(RDF_TYPE))  # the `a` keyword's IRI


def _error_at(text: str, pos: int, message: str) -> TurtleParseError:
    """A parse error at offset `pos`; its line and column are counted only when one is raised."""
    return TurtleParseError(message, *position(text, pos))


def _lex_string(text: str, start: int) -> str:
    """The value of the string whose quote is at `start`."""
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
            return "".join(parts)
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
    """Recursive descent over the token list, which ends with an empty token.

    Each method takes the index of the token it starts at; one that may
    read more than one token also returns the index after what it read.
    """

    __slots__ = ("source", "tokens", "doc", "env", "terms", "a")

    def __init__(self, source: str, load: LoadState):
        self.source = source
        self.tokens = _TOKEN.findall(source)
        self.doc = OntologyDocument()
        # The environment of the directives so far.
        self.env = load.root
        # IRI -> its Iri, for every document of the load.
        self.terms = load.terms
        self.a = load.a

    def parse(self) -> OntologyDocument:
        tokens, iris, a = self.tokens, self.env.iris, self.a
        doc = self.doc
        statements = doc.statements
        i = 0
        while True:
            tok = tokens[i]
            if not tok:
                doc.base, doc.prefixes = self.env.base, self.env.prefixes
                return doc
            if (tok == "@prefix" or tok == "@base") and self._is_directive(i):
                i = self._enter(i)
                iris = self.env.iris
                continue
            subject = iris.get(tok) or self._term(i, "subject")
            i += 1
            while True:
                tok = tokens[i]
                verb = a if tok == "a" else iris.get(tok) or self._term(i, "predicate")
                i += 1
                while True:
                    obj = iris.get(tokens[i])
                    if obj is None:
                        obj, i = self._object(i)
                    else:
                        i += 1
                    statements.append((subject, verb, obj))
                    if tokens[i] != ",":
                        break
                    i += 1
                if tokens[i] != ";":
                    break
                i += 1
                # A dangling ';' before '.' is tolerated, as in full Turtle.
                if tokens[i] == ".":
                    break
            if tokens[i] != ".":
                raise self._unexpected(i, "'.'")
            i += 1

    def _is_directive(self, i: int) -> bool:
        """Whether token i is the `@prefix` or `@base` keyword.

        Glued to a word character, a keyword is a language tag: `\b` in
        _TOKEN ends a directive, and the language tag alternative then
        matches the same text.
        """
        tok = self.tokens[i]
        if tok != "@prefix" and tok != "@base":
            return False
        glued = self.tokens[i + 1]
        if glued[:1] in _PNAME_START:  # the common case, and one _TAG_GLUE never matches
            return True
        return not (_TAG_GLUE.match(glued) and self._offset(i + 1) == self._offset(i) + len(tok))

    def _enter(self, i: int) -> int:
        """Enter the environment the directive at token i builds, parsing it only where no document has yet."""
        tokens = self.tokens
        end = i + 4 if tokens[i] == "@prefix" else i + 3
        key = tuple(tokens[i:end])
        env = self.env.after.get(key)
        if env is None:
            # A directive that fails to parse raises here and is never kept.
            env = self.env.after[key] = self._parse_directive(i)
        self.env = env
        return end

    def _parse_directive(self, i: int) -> _Environment:
        """The environment the directive at token i builds on the current one."""
        tokens = self.tokens
        base, prefixes = self.env.base, self.env.prefixes
        if tokens[i] == "@prefix":
            name = tokens[i + 1]
            # Only a prefixed name can end in its one ':'.
            if not name.endswith(":") or name.count(":") != 1:
                raise self._error(i + 1, "expected 'prefix:' after @prefix")
            i += 2
            if not _is_iriref(tokens[i]):
                raise self._error(i, "expected <iri> in @prefix directive")
            prefixes = {**prefixes, name[:-1]: self._resolve_iriref(i)}
        else:
            i += 1
            if not _is_iriref(tokens[i]):
                raise self._error(i, "expected <iri> in @base directive")
            base = self._resolve_iriref(i)
        self._expect(i + 1, ".")
        return _Environment(base, prefixes)

    def _expect(self, i: int, text: str) -> int:
        if self.tokens[i] != text:
            raise self._unexpected(i, f"'{text}'")
        return i + 1

    def _resolve_iriref(self, i: int) -> str:
        value = self.tokens[i][1:-1]
        if _SCHEME.match(value):
            return value
        base = self.env.base
        if base is None:
            raise self._error(i, f"relative IRI <{value}> with no @base in scope")
        return base + value

    def _term(self, i: int, position: str) -> Iri | Blank:
        """The IRI or blank node at token i, which the environment's `iris` does not hold."""
        tok = self.tokens[i]
        first = tok[:1]
        if first in _PNAME_START and ":" in tok:
            prefix, _, local = tok.partition(":")
            namespace = self.env.prefixes.get(prefix)
            if namespace is None:
                raise self._error(i, f"undeclared prefix '{prefix}:'")
            value = namespace + local
        elif _is_iriref(tok):
            value = self._resolve_iriref(i)
        elif first == "_" and len(tok) > 1:
            if position == "predicate":
                raise self._error(i, "blank node not allowed as predicate")
            self.doc.has_blank = True
            return Blank(tok[2:])
        elif self._split(i):
            # The run's first name is the token now; as a verb it may be `a`.
            return self.a if position == "predicate" and self.tokens[i] == "a" else self._term(i, position)
        else:
            raise self._unexpected(i, f"{position} term")
        iri = self.terms.get(value)
        if iri is None:
            try:
                iri = self.terms[value] = Iri(value)
            except MalformedTermError as exc:
                raise self._error(i, str(exc)) from exc
        self.env.iris[tok] = iri
        return iri

    def _object(self, i: int) -> tuple[Term, int]:
        """The object term at token i, which the environment's `iris` does not hold."""
        tok = self.tokens[i]
        first = tok[:1]
        if first in _QUOTES and len(tok) > 1:
            return self._literal(i)
        if first in _DIGITS or first in _SIGN_OR_DOT and len(tok) > 1:
            return Literal(tok, XSD_DECIMAL if "." in tok else XSD_INTEGER), i + 1
        if tok == "true" or tok == "false":
            return Literal(tok, XSD_BOOLEAN), i + 1
        if self._split(i):
            return self._object(i)
        return self._term(i, "object"), i + 1

    def _literal(self, i: int) -> tuple[Literal, int]:
        """The literal of string token i, with the language tag or datatype after it."""
        lexical = self._string(i)
        tok = self.tokens[i + 1]
        if tok[:1] == "@" and len(tok) > 1 and not self._is_directive(i + 1):
            return Literal(lexical, RDF_LANG_STRING, tok[1:]), i + 2
        if tok != "^^":
            return Literal(lexical, XSD_STRING), i + 1
        datatype = self.env.iris.get(self.tokens[i + 2]) or self._term(i + 2, "datatype")
        if not isinstance(datatype, Iri):
            raise self._error(i + 2, "datatype must be an IRI")
        return Literal(lexical, datatype.value), i + 3

    def _string(self, i: int) -> str:
        """The value of string token i."""
        tok = self.tokens[i]
        if "\\" not in tok:
            return tok[1:-1]
        try:
            return _lex_string(tok, 0)
        except TurtleParseError:
            # Raises the same error, placed in the source.
            return _lex_string(self.source, self._offset(i))

    def _split(self, i: int) -> bool:
        """If token i is a run holding a second name, put the run's own tokens in its place."""
        tok = self.tokens[i]
        if tok[:1] not in _PNAME_START or "." not in tok or ":" in tok:
            return False
        self.tokens[i : i + 1] = _RUN_TOKEN.findall(tok)
        return True

    def _offset(self, i: int) -> int:
        """The offset of token i, found by lexing the source again up to it.

        A run the parser has split is one match that spans several tokens.
        """
        tokens = self.tokens
        k = 0
        for match in _TOKEN.finditer(self.source):
            end = match.end()
            pos = end - len(match[1] or "")
            while True:
                if k == i:
                    return pos
                pos += len(tokens[k])
                k += 1
                if pos >= end:
                    break

    def _error(self, i: int, message: str) -> TurtleParseError:
        """The error at token i, as a lexer that read one token ahead met it.

        Such a lexer raised at a token it could not read before the parser
        looked at it: a stray character, a quote that opens no string, or a
        string with a bad escape.
        """
        tok = self.tokens[i]
        pos = self._offset(i)
        if tok[:1] in _QUOTES:
            _lex_string(self.source, pos)
        elif len(tok) == 1 and tok not in _ONE_CHAR_TOKENS:
            message = f"unexpected character {tok!r}"
        return _error_at(self.source, pos, message)

    def _unexpected(self, i: int, expected: str) -> TurtleParseError:
        self._split(i)
        tok = self.tokens[i]
        shown = self._string(i) if tok[:1] in _QUOTES and len(tok) > 1 else tok
        return self._error(i, f"expected {expected}, got {shown!r}")


def _is_iriref(tok: str) -> bool:
    return tok[:1] == "<" and len(tok) > 1


def parse_document(text: str, load: LoadState | None = None) -> OntologyDocument:
    """Parse subset-Turtle text into (subject, predicate, object) triples.

    The grammar admits only an IRI or blank subject and an IRI predicate,
    and builds each term through its constructor, so every triple is one a
    `Quad` accepts. Duplicate triples are preserved here; the store
    deduplicates on insert. Each IRI is taken from `load`, the state the
    documents of one load share, and added to it when it is new; with no
    state given, the document gets a fresh one of its own.
    """
    if not isinstance(text, str):
        raise TurtleParseError("input must be text", 1, 1)
    return _Parser(text, LoadState() if load is None else load).parse()


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

# A local part the lexer reads back whole, from the pattern it reads it with.
_PN_LOCAL_OK = re.compile(_PN_LOCAL)
_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _compact(iri: str) -> str:
    for prefix, namespace in WELL_KNOWN_PREFIXES:
        if iri.startswith(namespace):
            local = iri[len(namespace):]
            if _PN_LOCAL_OK.fullmatch(local):
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
