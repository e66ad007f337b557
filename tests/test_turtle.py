from __future__ import annotations

import random
import re
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import vocab
from graphsynth.errors import TurtleParseError
from graphsynth.quadstore import Quad, QuadStore
from graphsynth.terms import (
    RDF_LANG_STRING,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    Blank,
    Iri,
    Literal,
)
from graphsynth.turtle import parse_document, serialize

X = "http://x.example/"
G = "http://x.example/graph"


def triples_of(text: str):
    return parse_document(text).statements


def test_a_keyword_expands_to_rdf_type():
    text = "@prefix a: <http://x/> . a:s a a:C ."
    [triple] = triples_of(text)
    assert type(triple) is tuple
    assert triple == (Iri("http://x/s"), Iri(RDF_TYPE), Iri("http://x/C"))


def test_datatyped_literal():
    text = f'@prefix a: <{X}> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> . a:s a:p "6"^^xsd:integer .'
    [(_, _, obj)] = triples_of(text)
    assert obj == Literal("6", XSD_INTEGER)


def test_predicate_object_lists_share_subject():
    text = f"@prefix a: <{X}> . a:s a:p a:o1 , a:o2 ; a:q a:o3 ."
    statements = triples_of(text)
    assert len(statements) == 3
    assert {s for s, _, _ in statements} == {Iri(X + "s")}
    assert [p.value.rsplit("/", 1)[-1] for _, p, _ in statements] == ["p", "p", "q"]


def test_numeric_boolean_and_string_literals():
    text = f"@prefix a: <{X}> . a:s a:p 6 ; a:p 1.5 ; a:p true ; a:p \"plain\" ; a:p 'single' ."
    objects = [obj for _, _, obj in triples_of(text)]
    assert objects == [
        Literal("6", XSD_INTEGER),
        Literal("1.5", XSD_DECIMAL),
        Literal("true", XSD_BOOLEAN),
        Literal("plain", XSD_STRING),
        Literal("single", XSD_STRING),
    ]


def test_language_tag_passes_through():
    text = f'@prefix a: <{X}> . a:s a:p "hello"@en-GB .'
    [(_, _, obj)] = triples_of(text)
    assert obj == Literal("hello", RDF_LANG_STRING, "en-GB")


def test_base_resolves_relative_iris():
    text = f"@base <{X}> . <s> <p> <o> ."
    [(subject, _, _)] = triples_of(text)
    assert subject == Iri(X + "s")


def test_duplicate_triples_preserved_until_insert():
    text = f"@prefix a: <{X}> . a:s a:p a:o . a:s a:p a:o ."
    statements = triples_of(text)
    assert len(statements) == 2
    store = QuadStore()
    assert [store.insert(Quad(*t, G)) for t in statements] == [True, False]
    assert len(store) == 1


def test_blank_nodes_and_comments():
    text = f"@prefix a: <{X}> .\n# a comment line\n_:b1 a:p _:b2 .\n"
    [(subject, _, obj)] = triples_of(text)
    assert subject == Blank("b1")
    assert obj == Blank("b2")


def test_string_escapes():
    text = f'@prefix a: <{X}> . a:s a:p "tab\\there \\"quoted\\" \\u00e9" .'
    [(_, _, obj)] = triples_of(text)
    assert obj.lexical == 'tab\there "quoted" é'


def test_undeclared_prefix_is_an_error():
    with pytest.raises(TurtleParseError) as exc:
        triples_of("nope:s nope:p nope:o .")
    assert "undeclared prefix" in str(exc.value)


def test_relative_iri_without_base_is_an_error():
    with pytest.raises(TurtleParseError) as exc:
        triples_of("<s> <p> <o> .")
    assert "no @base" in str(exc.value)


def test_syntax_error_carries_position():
    with pytest.raises(TurtleParseError) as exc:
        triples_of(f"@prefix a: <{X}> .\na:s a:p %%% .")
    assert exc.value.line == 2
    assert exc.value.column is not None


# Every document puts CRLF line ends, tabs and comments before its error, so
# a position that counted a tab, a '\r' or a comment wrongly would show.
_ERROR_HEAD = "# leading comment\r\n@prefix a: <http://x.example/> .\r\n\t# indented comment\r\n\ta:s\ta:p\ta:o ;\r\n"


@pytest.mark.parametrize(
    "body, message, line, column",
    [
        ("\ta:q\t%oops .\r\n", "unexpected character '%'", 5, 6),
        ('\ta:q\t"open', "unterminated string", 5, 6),
        ('\ta:q\t"abc\r\n" .\r\n', "newline inside string", 5, 11),
        ('\ta:q\t"abc\\', "dangling escape", 5, 10),
        ('\ta:q\t"a\\qb" .\r\n', "unknown escape '\\q'", 5, 8),
        ('\ta:q\t"x\\u12G4" .\r\n', "bad unicode escape", 5, 8),
        ("\tnope:q\ta:o .\r\n", "undeclared prefix 'nope:'", 5, 2),
        ("\t<q>\ta:o .\r\n", "relative IRI <q> with no @base in scope", 5, 2),
        ("\ta:q\ta:o\r\n# between\r\na:t a:p a:o .\r\n", "expected '.', got 'a:t'", 7, 1),
        ("\t_:b\ta:o .\r\n", "blank node not allowed as predicate", 5, 2),
        # Which error wins where a token the lexer cannot read meets a parse
        # error: the lexer reads one token ahead of the parser.
        ('\ta:q\ta:o .\r\n"s\\q"\ta:p\ta:o .\r\n', "unknown escape '\\q'", 6, 3),
        ('\ta:q\ta:o .\r\nnope:s\t"x\\q" .\r\n', "undeclared prefix 'nope:'", 6, 1),
        ('\ta:q\t"x"@en\t"y\\q" .\r\n', "unknown escape '\\q'", 5, 15),
        ("\ta:q\ta:o .\r\n. %", "expected subject term, got '.'", 6, 1),
        ("\ta:q\ta:o\t%\r\n", "unexpected character '%'", 5, 10),
        ("\ta:q\t<http://x.example/a b> .\r\n", "unexpected character '<'", 5, 6),
        # A directive keyword glued to a word character is a language tag.
        ('\ta:q\t"x"@prefix1 .\r\n', "expected '.', got '1'", 5, 16),
        ("\ta:q\ta:o .\r\n@base_:b a:p a:o .\r\n", "expected subject term, got '@base'", 6, 1),
        # A blank datatype is reported at the blank.
        ('\ta:q\t"x"^^_:b .\r\n', "datatype must be an IRI", 5, 11),
        # A run of names, dots and numbers is read token by token where the parser reaches it.
        ("\ta:q\ttrue.5x .\r\n", "expected '.', got '.5'", 5, 10),
        ("\ta.5x .\r\n", "expected '.', got 'x'", 5, 5),
        ("\ta:q\ta:o .\r\na.b.c a:p a:o .\r\n", "expected subject term, got 'a'", 6, 1),
    ],
    ids=[
        "unexpected-character",
        "unterminated-string",
        "newline-inside-string",
        "dangling-escape",
        "unknown-escape",
        "bad-unicode-escape",
        "undeclared-prefix",
        "relative-iri-without-base",
        "expected-dot",
        "blank-predicate",
        "bad-escape-as-subject",
        "undeclared-prefix-before-bad-escape",
        "bad-escape-after-language-tag",
        "stray-after-unexpected-dot",
        "stray-after-triple",
        "iri-holding-a-space",
        "keyword-glued-to-digit-is-language-tag",
        "keyword-glued-to-underscore-is-no-directive",
        "blank-datatype",
        "run-after-boolean-object",
        "run-after-verb-a",
        "run-as-subject",
    ],
)
def test_parse_errors_report_message_line_and_column(body, message, line, column):
    with pytest.raises(TurtleParseError) as exc:
        parse_document(_ERROR_HEAD + body)
    assert (str(exc.value), exc.value.line, exc.value.column) == (f"{line}:{column}: {message}", line, column)


def test_a_long_run_of_names_and_dots_raises_the_short_runs_error_quickly():
    with pytest.raises(TurtleParseError) as short:
        parse_document("a." * 2)
    start = time.perf_counter()
    with pytest.raises(TurtleParseError) as long:
        parse_document("a." * 50_000)
    assert time.perf_counter() - start < 1.0
    assert (str(long.value), long.value.line, long.value.column) == (str(short.value), 1, 1)
    assert str(short.value) == "1:1: expected subject term, got 'a'"


@pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U0000DC00", "\\U00110000", "\\UFFFFFFFF"])
def test_escape_of_no_unicode_character_is_a_bad_unicode_escape(escape):
    with pytest.raises(TurtleParseError) as exc:
        triples_of(f'@prefix a: <{X}> .\n a:s a:p "ok {escape}" .')
    assert (str(exc.value), exc.value.line, exc.value.column) == ("2:14: bad unicode escape", 2, 14)


def test_escapes_at_the_edges_of_the_surrogate_block_and_of_unicode_load():
    [(_, _, obj)] = triples_of(f'@prefix a: <{X}> . a:s a:p "\\uD7FF\\uE000\\U0010FFFF" .')
    assert obj.lexical == "\ud7ff\ue000\U0010ffff"


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("<http://x.example/s\u00a0t> a:p a:o .", 2, 1),
        ("a:s a:p <http://x.example/o\u2003p> .", 2, 9),
        ("@prefix b: <http://x.example/\u3000> .\na:s b:p a:o .", 3, 5),
    ],
    ids=["subject-iri", "object-iri", "via-prefix"],
)
def test_iri_holding_a_non_ascii_space_is_a_parse_error_at_its_token(text, line, column):
    with pytest.raises(TurtleParseError) as exc:
        triples_of(f"@prefix a: <{X}> .\n" + text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert "IRI contains whitespace" in str(exc.value)


def test_literal_subject_is_an_error():
    with pytest.raises(TurtleParseError):
        triples_of(f'@prefix a: <{X}> . "s" a:p a:o .')


def test_unterminated_string():
    with pytest.raises(TurtleParseError):
        triples_of(f'@prefix a: <{X}> . a:s a:p "open .')


def test_serialize_empty_graph_is_header_only():
    text = serialize(QuadStore(), "http://g.example/none")
    assert text.startswith("@prefix ")
    reparsed = parse_document(text)
    assert reparsed.statements == []


def test_single_quad_round_trip():
    store = QuadStore()
    quad = Quad(Iri(X + "s"), Iri(X + "p"), Literal("v"), G)
    store.insert(quad)
    text = serialize(store, G)
    assert {Quad(*t, G) for t in parse_document(text).statements} == {quad}


def test_seed_kb_round_trips_to_equal_quad_set(seed_kb):
    store, _ = seed_kb
    text = serialize(store, vocab.CORE_GRAPH)
    reparsed = parse_document(text)
    assert {Quad(*t, vocab.CORE_GRAPH) for t in reparsed.statements} == set(store.quads(vocab.CORE_GRAPH))


_safe_iris = st.sampled_from([Iri(X + suffix) for suffix in ("a", "b", "p", "q", "o/long", "x%20y", "v?k=1")])
_blank_labels = st.from_regex(r"[A-Za-z0-9_]([A-Za-z0-9_.-]{0,6}[A-Za-z0-9_-])?", fullmatch=True)
_lang_tags = st.from_regex(r"[A-Za-z]{1,4}(-[A-Za-z0-9]{1,3})?", fullmatch=True)
_lexicals = st.text(max_size=12)

_literals = st.one_of(
    st.builds(Literal, _lexicals),
    st.builds(Literal, _lexicals, st.just(XSD_INTEGER)),
    st.builds(lambda n: Literal(str(n), XSD_INTEGER), st.integers(-999, 999)),
    st.builds(Literal, _lexicals, _safe_iris.map(lambda i: i.value)),
    st.builds(lambda lex, tag: Literal(lex, RDF_LANG_STRING, tag), _lexicals, _lang_tags),
)
_subjects = st.one_of(_safe_iris, st.builds(Blank, _blank_labels))
_objects = st.one_of(_safe_iris, st.builds(Blank, _blank_labels), _literals)


@given(st.lists(st.tuples(_subjects, _safe_iris, _objects), max_size=25))
@settings(max_examples=120, deadline=None)
def test_serialize_parse_round_trip(triples):
    store = QuadStore()
    for subject, predicate, obj in triples:
        store.insert(Quad(subject, predicate, obj, G))
    text = serialize(store, G)
    reparsed = parse_document(text)
    assert {Quad(*t, G) for t in reparsed.statements} == set(store.quads(G))


_FUZZ_ALPHABET = string.ascii_letters + string.digits + " \t\n<>\"'@#.;,:^\\_-%{}|`()[]~é€"


def fuzz_once(rng: random.Random, seeds: list[str]) -> str:
    roll = rng.random()
    if roll < 0.4:
        return "".join(rng.choices(_FUZZ_ALPHABET, k=rng.randint(0, 80)))
    seed_text = rng.choice(seeds)
    if roll < 0.6:
        cut = rng.randint(0, len(seed_text))
        return seed_text[:cut]
    chars = list(seed_text)
    for _ in range(rng.randint(1, 8)):
        index = rng.randrange(max(len(chars), 1))
        action = rng.random()
        if action < 0.4 and chars:
            chars[index % len(chars)] = rng.choice(_FUZZ_ALPHABET)
        elif action < 0.7 and chars:
            del chars[index % len(chars)]
        else:
            chars.insert(index % (len(chars) + 1), rng.choice(_FUZZ_ALPHABET))
    return "".join(chars)


def test_parser_total_on_fuzzed_inputs(seed_kb):
    from graphsynth.seed import kb_dir

    seeds = [path.read_text(encoding="utf-8") for path in sorted(kb_dir().glob("*.ttl"))[:6]]
    rng = random.Random(20260808)
    for _ in range(1500):
        text = fuzz_once(rng, seeds)
        try:
            parse_document(text)
        except TurtleParseError as exc:
            assert exc.line is not None and exc.column is not None


# Splits a KB file into tokens and the trivia runs between them; only the
# runs (group 1) are replaced, so the token sequence stays the same.
_TRIVIA_OR_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'|<[^<>\s]*>|((?:[ \t\r\n]|#[^\n]*)+)|[^\s"\'#<]+')
_TRIVIA_PIECES = st.sampled_from([" ", "\t", "\n", "\r\n", "# note\n", "#\t'\"<>#\r\n"])


def _kb_texts() -> list[str]:
    from graphsynth.seed import kb_dir

    return [path.read_text(encoding="utf-8") for path in sorted(kb_dir().glob("*.ttl"))]


@given(st.sampled_from(_kb_texts()), st.data())
@settings(max_examples=60, deadline=None)
def test_random_trivia_between_tokens_keeps_the_quads(text, data):
    pieces = []
    for m in _TRIVIA_OR_TOKEN.finditer(text):
        if m.group(1) is None:
            pieces.append(m.group(0))
        else:
            pieces.append("".join(data.draw(st.lists(_TRIVIA_PIECES, min_size=1, max_size=3))))
    assert sum(len(m.group(0)) for m in _TRIVIA_OR_TOKEN.finditer(text)) == len(text)
    assert parse_document("".join(pieces)).statements == parse_document(text).statements


# --- random valid documents, each written together with the triples it holds.
# They cover what the serializer never writes: @base and relative IRIs, the
# empty prefix, escapes in both quote styles, language tags, prefixed
# datatypes, signed and dot-led numbers, object and predicate lists with a
# dangling ';', and comments between any two tokens.
_BASE, _NS, _EMPTY_NS = "http://base.example/dir/", "http://x.example/", "http://empty.example/"
_SPACE = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", " # a 'comment' with \"quotes\" <and> @at #\n"]),
                  min_size=1, max_size=2).map("".join)


@st.composite
def _quoted(draw) -> tuple[str, str]:
    """A string token, every character written raw or escaped, and its value."""
    quote = draw(st.sampled_from(['"', "'"]))
    value = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
    body = []
    for ch in value:
        ways = [f"\\U{ord(ch):08X}"]
        if ord(ch) <= 0xFFFF:
            ways.append(f"\\u{ord(ch):04x}")
        if ch in "\t\n\r\"'\\":
            ways.append("\\" + {"\t": "t", "\n": "n", "\r": "r"}.get(ch, ch))
        if ch not in (quote, "\\", "\n"):
            ways.append(ch)
        body.append(draw(st.sampled_from(ways)))
    return quote + "".join(body) + quote, value


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def _iri(draw, base: bool):
    """An IRI token: a prefixed name, the empty prefix, an absolute IRI or, under @base, a relative one."""
    name = draw(st.one_of(st.just(""), _names))
    kinds = ["prefixed", "empty-prefix", "absolute"] + ["relative"] * base
    kind = draw(st.sampled_from(kinds))
    if kind == "prefixed":
        return f"x:{name}", Iri(_NS + name)
    if kind == "empty-prefix":
        return f":{name}", Iri(_EMPTY_NS + name)
    if kind == "absolute":
        return f"<{_NS}abs/{name}>", Iri(f"{_NS}abs/{name}")
    return f"<{name}>", Iri(_BASE + name)


_blank = st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True).map(lambda label: (f"_:{label}", Blank(label)))
_NUMBERS = [".5", "+1", "-2.0", "0", "42", "-7", "3.25", "+.75"]
# A language tag spelled like a directive keyword would lex as that keyword.
_tags = st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}", fullmatch=True).filter(
    lambda tag: tag not in ("prefix", "base"))


@st.composite
def _object(draw, base: bool):
    kind = draw(st.sampled_from(["iri", "blank", "string", "tagged", "typed", "number", "boolean"]))
    if kind == "iri":
        return draw(_iri(base))
    if kind == "blank":
        return draw(_blank)
    if kind == "number":
        text = draw(st.sampled_from(_NUMBERS))
        return text, Literal(text, XSD_DECIMAL if "." in text else XSD_INTEGER)
    if kind == "boolean":
        text = draw(st.sampled_from(["true", "false"]))
        return text, Literal(text, XSD_BOOLEAN)
    text, value = draw(_quoted())
    if kind == "string":
        return text, Literal(value)
    if kind == "tagged":
        tag = draw(_tags)
        return f"{text}@{tag}", Literal(value, RDF_LANG_STRING, tag)
    datatype, iri = draw(st.sampled_from([("xsd:integer", XSD_INTEGER), ("x:dt", _NS + "dt"), (f"<{_NS}d>", _NS + "d")]))
    return f"{text}^^{datatype}", Literal(value, iri)


@st.composite
def _document(draw):
    """A valid document as its tokens, and the base, prefixes and statements it holds."""
    base = draw(st.booleans())
    tokens = ["@base", f"<{_BASE}>", "."] if base else []
    prefixes = {"x": _NS, "": _EMPTY_NS, "xsd": "http://www.w3.org/2001/XMLSchema#"}
    for prefix, namespace in prefixes.items():
        tokens += ["@prefix", f"{prefix}:", f"<{namespace}>", "."]
    statements = []
    for _ in range(draw(st.integers(0, 4))):
        text, subject = draw(st.one_of(_iri(base), _blank))
        tokens.append(text)
        verbs = draw(st.integers(1, 3))
        for v in range(verbs):
            text, verb = draw(st.one_of(_iri(base), st.just(("a", Iri(RDF_TYPE)))))
            tokens.append(text)
            for o in range(draw(st.integers(1, 3))):
                text, obj = draw(_object(base))
                tokens += [",", text] if o else [text]
                statements.append((subject, verb, obj))
            if v < verbs - 1 or draw(st.booleans()):
                tokens.append(";")
        tokens.append(".")
    return tokens, (_BASE if base else None, prefixes, statements)


@given(_document(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_random_valid_document_parses_to_the_triples_it_was_written_with(document, data):
    tokens, expected = document
    # Trivia goes between any two tokens; only punctuation may follow a token
    # glued to it, as a name, number or tag would run on into the next token.
    pieces = []
    for token in tokens:
        if pieces:
            pieces.append(data.draw(_SPACE | st.just("")) if token in (".", ";", ",") else data.draw(_SPACE))
        pieces.append(token)
    pieces.append(data.draw(st.sampled_from(["", "\n", " # a last comment, with no line end"])))
    doc = parse_document("".join(pieces))
    assert (doc.base, doc.prefixes, doc.statements) == expected
